package collector

import (
	"bytes"
	"testing"
)

// FuzzDeltaSnapshot feeds arbitrary bytes as the delta of a chain over
// a real base: the contract is an error or a faithful corpus — never a
// panic, never a partially applied chain that escapes. Seeds start
// inside the real format, in both versions the reader accepts — the
// base is the version-1 chain fixture's, the seeds its own version-1
// delta and a version-2 delta cut against the same state, plus
// near-valid husks — so coverage begins past the magic check. Run
// continuously with:
//
//	go test ./internal/collector -run '^$' -fuzz '^FuzzDeltaSnapshot$' -fuzztime 30s -fuzzminimizetime 2s
func FuzzDeltaSnapshot(f *testing.F) {
	base, v1Delta := v1Chain(f)
	c, err := OpenSnapshot(bytes.NewReader(base))
	if err != nil {
		f.Fatal(err)
	}
	addrs, times, servers := goldenStream()
	feedGolden(c, addrs, times, servers, 900, 1300)
	var delta bytes.Buffer
	if err := c.SnapshotDelta(&delta); err != nil {
		f.Fatal(err)
	}

	f.Add(delta.Bytes())
	f.Add(v1Delta)
	f.Add([]byte("h6delta1"))
	f.Add([]byte("h6delta1\x00\x00\x00\x01"))
	f.Add([]byte("h6delta1\x00\x00\x00\x02"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := RestoreChain(bytes.NewReader(base), bytes.NewReader(data))
		if err != nil {
			if got != nil {
				t.Fatalf("error return carries a non-nil collector")
			}
			return
		}
		// A delta that applies cleanly (structurally valid records with
		// correct CRCs, whatever their values) must leave an internally
		// consistent corpus: every walk terminates and a full snapshot
		// round-trips to the same corpus — nothing corrupt was silently
		// accepted.
		var buf bytes.Buffer
		if err := got.Snapshot(&buf); err != nil {
			t.Fatalf("post-delta collector cannot snapshot: %v", err)
		}
		again, err := OpenSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("post-delta snapshot does not restore: %v", err)
		}
		sameCorpus(t, again, got)
	})
}
