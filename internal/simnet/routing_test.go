package simnet

import "testing"

// TestBuildASDBMatchesWorld pins that the standalone routing DB (used
// by live consumers that never build a world) attributes a built
// world's addresses exactly as the world's own table does.
func TestBuildASDBMatchesWorld(t *testing.T) {
	cfg := DefaultConfig(11, 0.03)
	cfg.Days = 5
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := BuildASDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, as := range cfg.ASes {
		if (db.Get(as.ASN) == nil) != (w.ASDB.Get(as.ASN) == nil) {
			t.Fatalf("AS%d registered in one table but not the other", as.ASN)
		}
	}
	checked := 0
	w.GenerateQueries(func(q Query) {
		if checked >= 2000 {
			return
		}
		checked++
		wantASN, wantOK := w.ASDB.OriginASN(q.Addr)
		gotASN, gotOK := db.OriginASN(q.Addr)
		if wantOK != gotOK || wantASN != gotASN {
			t.Fatalf("attribution of %v: (%d,%v) vs world (%d,%v)",
				q.Addr, gotASN, gotOK, wantASN, wantOK)
		}
	})
	if checked == 0 {
		t.Fatal("no queries checked")
	}
}
