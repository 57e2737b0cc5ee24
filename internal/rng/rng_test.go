package rng

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// pinnedSeeds are the seeds whose normalisation is a special case:
// zero, the modulus and its neighbours, negatives and the int64 ends.
var pinnedSeeds = []int64{
	0, 1, -1, 89482311, 1<<31 - 1, 1 << 31, -(1 << 40),
	math.MaxInt64, math.MinInt64,
}

// testSeeds returns the pinned seeds plus n random ones.
func testSeeds(n int) []int64 {
	seeds := append([]int64(nil), pinnedSeeds...)
	r := rand.New(rand.NewSource(20230))
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// checkStream compares n draws of got against rand.NewSource(seed),
// alternating Uint64 and Int63 so both entry points are covered.
func checkStream(t *testing.T, got *Source, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, i, g, w)
			}
		} else if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d draw %d: Int63 %#x, math/rand %#x", seed, i, g, w)
		}
	}
}

// TestSourceMatchesMathRand pins Source to the live stdlib stream, past
// the 607-word wrap, for fresh and for reseeded sources, and through
// rand.New.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 1500
	reused := NewSource(7)
	for _, seed := range testSeeds(2000) {
		checkStream(t, NewSource(seed), seed, draws)
		reused.Seed(seed)
		checkStream(t, reused, seed, draws)
	}
	// The rand.Rand methods the simulation calls, over both sources.
	for _, seed := range testSeeds(50) {
		got, want := rand.New(NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 %v, math/rand %v", seed, g, w)
			}
			if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
				t.Fatalf("seed %d: ExpFloat64 %v, math/rand %v", seed, g, w)
			}
			if g, w := got.Intn(1000+i), want.Intn(1000+i); g != w {
				t.Fatalf("seed %d: Intn %d, math/rand %d", seed, g, w)
			}
		}
		g, w := got.Perm(40), want.Perm(40)
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("seed %d: Perm %v, math/rand %v", seed, g, w)
			}
		}
	}
}

func FuzzSource(f *testing.F) {
	for _, seed := range pinnedSeeds {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		checkStream(t, NewSource(seed), seed, int(n))
	})
}

var sink uint64

// BenchmarkSeeded seeds a source and draws from it, the way the
// simulation seeds one stream per device or /64.
func BenchmarkSeeded(b *testing.B) {
	for _, draws := range []int{16, 64, 1000} {
		b.Run("draws="+strconv.Itoa(draws), func(b *testing.B) {
			b.Run("rng", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s := NewSource(int64(i))
					for j := 0; j < draws; j++ {
						sink += s.Uint64()
					}
				}
			})
			b.Run("stdlib", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s := rand.NewSource(int64(i)).(rand.Source64)
					for j := 0; j < draws; j++ {
						sink += s.Uint64()
					}
				}
			})
		})
	}
}
