package collector

import (
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/simnet"
)

func TestMergeEquivalentToSequential(t *testing.T) {
	base := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	mac := addr.MAC{0xf0, 0x02, 0x20, 1, 2, 3}
	eui := addr.EUI64FromMAC(mac)
	obs := []struct {
		a      addr.Addr
		at     time.Time
		server int
	}{
		{addr.MustParse("2001:db8::1"), base, 0},
		{addr.MustParse("2001:db8::1"), base.Add(time.Hour), 1},
		{addr.MustParse("2001:db8::2"), base.Add(2 * time.Hour), 2},
		{addr.FromParts(0x20010db8_00010000, uint64(eui)), base, 3},
		{addr.FromParts(0x20010db8_00020000, uint64(eui)), base.Add(48 * time.Hour), 4},
	}

	sequential := New()
	for _, o := range obs {
		sequential.Observe(o.a, o.at, o.server)
	}

	// Split across two collectors, interleaved, then merge.
	a, b := New(), New()
	for i, o := range obs {
		if i%2 == 0 {
			a.Observe(o.a, o.at, o.server)
		} else {
			b.Observe(o.a, o.at, o.server)
		}
	}
	a.Merge(b)

	at, st := a.CopyRecords().IIDTable(), sequential.CopyRecords().IIDTable()
	if a.NumAddrs() != sequential.NumAddrs() || at.NumIIDs() != st.NumIIDs() {
		t.Fatalf("counts differ: %d/%d vs %d/%d",
			a.NumAddrs(), at.NumIIDs(), sequential.NumAddrs(), st.NumIIDs())
	}
	if a.TotalObservations() != sequential.TotalObservations() {
		t.Errorf("total: %d vs %d", a.TotalObservations(), sequential.TotalObservations())
	}
	sequential.AddrsRange(0, sequential.NumAddrs(), func(ad addr.Addr, want AddrRecord) bool {
		got, ok := a.Get(ad)
		if !ok || got != want {
			t.Errorf("record for %s: %+v vs %+v", ad, got, want)
		}
		return true
	})
	// EUI-64 /64 spans merged.
	wantIID, _ := st.GetIID(eui)
	gotIID, ok := at.GetIID(eui)
	if !ok || gotIID.NumP64s() != wantIID.NumP64s() {
		t.Fatalf("IID P64s: %d vs %d", gotIID.NumP64s(), wantIID.NumP64s())
	}
	wantIID.P64s(func(p addr.Prefix64, sp Span) bool {
		got, ok := gotIID.Span(p)
		if !ok || got != sp {
			t.Errorf("span for %s: %+v vs %+v", p, got, sp)
		}
		return true
	})
	// The merged canonical encoding settles it byte for byte.
	if a.Checksum() != sequential.Checksum() {
		t.Error("merged checksum differs from sequential")
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	base := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	src := New()
	src.Observe(addr.MustParse("2001:db8::9"), base, 5)
	dst := New()
	dst.Merge(src)
	if dst.NumAddrs() != 1 {
		t.Fatal("merge into empty lost data")
	}
	if _, ok := dst.Get(addr.MustParse("2001:db8::9")); !ok {
		t.Fatal("merged record missing")
	}
	// Source unchanged.
	if src.NumAddrs() != 1 {
		t.Fatal("source mutated")
	}
}

// TestMergeDeepCopies pins the aliasing contract: after Merge, the
// destination owns its records outright — continuing to write to the
// source must leave the destination's corpus untouched, spans included.
func TestMergeDeepCopies(t *testing.T) {
	base := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	mac := addr.MAC{0xf0, 0x02, 0x20, 7, 7, 7}
	eui := addr.EUI64FromMAC(mac)
	euiAddr := addr.FromParts(0x20010db8_00010000, uint64(eui))
	plain := addr.MustParse("2001:db8::9")

	src := New()
	src.Observe(plain, base, 5)
	src.Observe(euiAddr, base, 1)

	dst := New()
	dst.Merge(src)
	sum := dst.Checksum()
	wantAddr, _ := dst.Get(plain)
	wantView, _ := dst.CopyRecords().IIDTable().GetIID(eui)
	wantSpan, _ := wantView.Span(euiAddr.P64())

	// Hammer the source: widen the existing records, stretch the EUI-64
	// span, renumber the IID into a new /64, and add fresh addresses.
	src.Observe(plain, base.Add(90*24*time.Hour), 9)
	src.Observe(euiAddr, base.Add(-time.Hour), 2)
	src.Observe(addr.FromParts(0x20010db8_00990000, uint64(eui)), base.Add(time.Hour), 3)
	src.Observe(addr.MustParse("2400:cb00::1"), base, 0)

	if dst.Checksum() != sum {
		t.Fatal("mutating the merge source changed the destination corpus")
	}
	if got, _ := dst.Get(plain); got != wantAddr {
		t.Errorf("address record aliased: %+v vs %+v", got, wantAddr)
	}
	gotView, _ := dst.CopyRecords().IIDTable().GetIID(eui)
	if gotView.NumP64s() != 1 {
		t.Errorf("span chain aliased: %d /64s", gotView.NumP64s())
	}
	if got, _ := gotView.Span(euiAddr.P64()); got != wantSpan {
		t.Errorf("span aliased: %+v vs %+v", got, wantSpan)
	}
	if dst.NumAddrs() != 2 {
		t.Errorf("destination grew with the source: %d addrs", dst.NumAddrs())
	}

	// And the reverse direction: mutating the destination after the merge
	// must not leak back into the source.
	srcSum := src.Checksum()
	dst.Observe(plain, base.Add(400*24*time.Hour), 11)
	if src.Checksum() != srcSum {
		t.Error("mutating the merge destination changed the source corpus")
	}
}

// TestParallelReplayMatchesSerial is the scalability correctness check:
// the query stream dealt to shard collectors by device, as a sharded
// replay partitions it, and merged back must equal the serial corpus.
func TestParallelReplayMatchesSerial(t *testing.T) {
	cfg := simnet.DefaultConfig(13, 0.04)
	cfg.Days = 15
	w, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}

	serial := New()
	w.GenerateQueries(func(q simnet.Query) {
		serial.Observe(q.Addr, q.Time, 0)
	})

	const shards = 4
	parts := make([]*Collector, shards)
	for i := range parts {
		parts[i] = New()
	}
	shardOf := make(map[*simnet.Device]int)
	for i, d := range w.Devices() {
		shardOf[d] = i % shards
	}
	w.GenerateQueries(func(q simnet.Query) {
		parts[shardOf[q.Device]].Observe(q.Addr, q.Time, 0)
	})
	merged := New()
	for _, p := range parts {
		merged.Merge(p)
	}

	if merged.NumAddrs() != serial.NumAddrs() {
		t.Fatalf("addrs: %d vs %d", merged.NumAddrs(), serial.NumAddrs())
	}
	if merged.TotalObservations() != serial.TotalObservations() {
		t.Fatalf("observations: %d vs %d", merged.TotalObservations(), serial.TotalObservations())
	}
	mismatches := 0
	serial.AddrsRange(0, serial.NumAddrs(), func(a addr.Addr, want AddrRecord) bool {
		got, ok := merged.Get(a)
		if !ok || got.First != want.First || got.Last != want.Last || got.Count != want.Count {
			mismatches++
			return mismatches < 5
		}
		return true
	})
	if mismatches > 0 {
		t.Errorf("%d per-address record mismatches", mismatches)
	}
}
