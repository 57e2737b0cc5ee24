package pager

import (
	"os"
	"path/filepath"
	"testing"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
)

// FuzzTier feeds arbitrary bytes to Open: the contract is an error or a
// corpus whose every read path is deterministic and panic-free —
// hostile metas must not drive allocations, offsets, or scans out of
// bounds. Run continuously with:
//
//	go test ./internal/pager -run '^$' -fuzz '^FuzzTier$' -fuzztime 30s
func FuzzTier(f *testing.F) {
	f.Add(tierBytes(f, 600))
	f.Add([]byte("h6tier01"))
	f.Add([]byte("h6tier01\x00\x00\x00\x01"))
	f.Add([]byte("h6tier01\x00\x00\x00\x02"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.tier")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		pc, err := Open(path, Options{RAMBudget: chunkBytes})
		if err != nil {
			return // rejected cleanly
		}
		defer pc.Close()
		// An accepted tier must read deterministically: two range walks
		// agree (or both fail — chunk CRCs are checked lazily), and every
		// key a walk hands out is one a point lookup finds.
		sum1, err1 := walkSum(pc)
		sum2, err2 := walkSum(pc)
		if (err1 == nil) != (err2 == nil) || (err1 == nil && sum1 != sum2) {
			t.Fatalf("accepted tier reads nondeterministically: %v / %v", err1, err2)
		}
		pc.AddrsRange(0, pc.NumAddrs(), func(a addr.Addr, r collector.AddrRecord) bool {
			if got, ok, err := pc.Get(a); err != nil || !ok || got != r {
				t.Fatalf("walked %v %+v, Get returned %+v, %v, %v", a, r, got, ok, err)
			}
			return true
		})
	})
}
