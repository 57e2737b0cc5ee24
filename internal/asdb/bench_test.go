package asdb

import (
	"math/rand"
	"testing"

	"hitlist6/internal/addr"
)

// BenchmarkTrieLookup measures longest-prefix matching against a table of
// 10k routes, the hot path of every per-address AS attribution.
func BenchmarkTrieLookup(b *testing.B) {
	tr, rng := benchRoutes(b)
	probes := make([]addr.Addr, 4096)
	for i := range probes {
		probes[i] = addr.FromParts(rng.Uint64(), rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(probes[i%len(probes)])
	}
}

// BenchmarkMemoLookup measures a Memo over BenchmarkTrieLookup's table.
// In device order the probes come in runs of 64 inside one /64, as a
// device's sightings do, so nearly every lookup hits; shuffled, they are
// BenchmarkTrieLookup's, so nearly every lookup misses, and the
// difference to that benchmark is the memo's miss overhead.
func BenchmarkMemoLookup(b *testing.B) {
	for _, order := range []string{"device", "shuffled"} {
		b.Run("order="+order, func(b *testing.B) {
			tr, rng := benchRoutes(b)
			probes := make([]addr.Addr, 4096)
			var hi uint64
			for i := range probes {
				if order == "shuffled" || i%64 == 0 {
					hi = rng.Uint64()
				}
				probes[i] = addr.FromParts(hi, rng.Uint64())
			}
			m := tr.NewMemo()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Lookup(probes[i%len(probes)])
			}
		})
	}
}

// benchRoutes returns a compiled table of 10k random /24../48 routes and
// the stream that drew them.
func benchRoutes(b *testing.B) (*Trie[int], *rand.Rand) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTrie[int]()
	for i := 0; i < 10_000; i++ {
		bits := 24 + rng.Intn(25) // /24../48
		p, err := addr.NewPrefix(addr.FromParts(rng.Uint64(), 0), bits)
		if err != nil {
			b.Fatal(err)
		}
		tr.Insert(p, i)
	}
	tr.table()
	return tr, rng
}

// BenchmarkTrieInsert measures route installation.
func BenchmarkTrieInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	prefixes := make([]addr.Prefix, 4096)
	for i := range prefixes {
		p, err := addr.NewPrefix(addr.FromParts(rng.Uint64(), 0), 32+rng.Intn(17))
		if err != nil {
			b.Fatal(err)
		}
		prefixes[i] = p
	}
	b.ResetTimer()
	tr := NewTrie[int]()
	for i := 0; i < b.N; i++ {
		tr.Insert(prefixes[i%len(prefixes)], i)
	}
}
