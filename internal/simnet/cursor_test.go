package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hitlist6/internal/rng"
)

// TestCursorMatchesAddressAt replays every device's query schedule the
// way random access answers it — on time.Time, ActiveAt and AddressAt
// rederived at every step — and requires GenerateQueries, which steps an
// addrCursor on integer offsets, to emit exactly the active steps with
// the same time and address. A step the cursor wrongly skips or keeps
// shifts the stream and fails here. The worlds carry injected outages,
// and the test asserts the runs covered roaming, a provider switch, an
// aliased site, an outage and every IID strategy.
func TestCursorMatchesAddressAt(t *testing.T) {
	var roamed, switched, aliased, down bool
	var strategies [NumIIDStrategies]bool
	for _, seed := range []int64{1, 2, 3} {
		for _, scale := range []float64{0.02, 0.1} {
			for _, days := range []int{30, 218} {
				cfg := DefaultConfig(seed, scale)
				cfg.Days = days
				for i := range cfg.ASes {
					if i%3 == 0 {
						cfg.ASes[i].Outages = []OutageWindow{{StartDay: 2 + i%25, Hours: 30}}
					}
				}
				w, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var got []Query
				w.GenerateQueries(func(q Query) { got = append(got, q) })

				name := fmt.Sprintf("seed %d scale %v days %d", seed, scale, days)
				next := 0
				rnd := rand.New(rng.NewSource(0))
				for _, d := range w.devices {
					if d.rate <= 0 || !d.usesPool {
						continue
					}
					rnd.Seed(int64(hash2(d.seed, 0x47e9)))
					meanGap := time.Duration(float64(24*time.Hour) / d.rate)
					tm := d.activeFrom.Add(time.Duration(rnd.ExpFloat64() * float64(10*time.Minute)))
					for tm.Before(d.activeTo) && tm.Before(w.End) {
						if !d.ActiveAt(tm) {
							down = true // inside the window, so an outage
						} else {
							want := Query{Time: tm, Addr: d.AddressAt(tm), Device: d}
							if next >= len(got) || got[next] != want {
								t.Fatalf("%s: query %d differs from the schedule's %v %s (device %p, %v)",
									name, next, want.Time, want.Addr, d, d.Strategy)
							}
							next++
							site := d.SiteAt(tm)
							roamed = roamed || site == d.cellSite
							switched = switched || site.as2 != nil && !tm.Before(site.switchAt)
							aliased = aliased || site.aliased
							strategies[d.Strategy] = true
						}
						gap := time.Duration(rnd.ExpFloat64() * float64(meanGap))
						tm = tm.Add(max(gap, time.Minute))
					}
				}
				if next != len(got) {
					t.Fatalf("%s: GenerateQueries emitted %d queries, the schedule %d", name, len(got), next)
				}
			}
		}
	}
	if !roamed || !switched || !aliased || !down {
		t.Errorf("coverage: roamed %v, switched %v, aliased %v, outage %v", roamed, switched, aliased, down)
	}
	for s, ok := range strategies {
		if !ok {
			t.Errorf("no query from a %v device", IIDStrategy(s))
		}
	}
}

// TestEpochClock steps clocks across epoch boundaries, exact to the
// nanosecond, and across skipped epochs; every answer must be epochOf's.
func TestEpochClock(t *testing.T) {
	origin := time.Date(2022, 1, 25, 0, 0, 0, 0, time.UTC)
	for _, iv := range []time.Duration{0, time.Nanosecond, 8 * time.Hour, 30 * 24 * time.Hour} {
		c := epochClock{interval: iv}
		var offs []time.Duration
		for _, k := range []time.Duration{0, 1, 2, 7, 8, 100} {
			offs = append(offs, k*iv-1, k*iv, k*iv+1)
		}
		for _, off := range offs {
			if off < 0 {
				continue
			}
			if got, _ := c.at(off); got != epochOf(origin.Add(off), origin, iv) {
				t.Errorf("interval %v offset %v: epoch %d, want %d", iv, off, got, epochOf(origin.Add(off), origin, iv))
			}
		}
	}
}

// BenchmarkGenerateQueries measures the replay alone at scale 0.5 over
// the full study window, with a no-op callback.
func BenchmarkGenerateQueries(b *testing.B) {
	w, err := Build(DefaultConfig(1, 0.5))
	if err != nil {
		b.Fatal(err)
	}
	n := countQueries(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.GenerateQueries(func(Query) {})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/query")
}
