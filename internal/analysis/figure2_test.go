package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/ntppool"
	"hitlist6/internal/simnet"
	"hitlist6/internal/stats"
)

// addressLifetimes is the distribution of every address lifetime in
// seconds: the samples Figure 2a was once read from.
func addressLifetimes(c *collector.Collector) *stats.Distribution {
	var samples []float64
	c.AddrsRange(0, c.NumAddrs(), func(_ addr.Addr, r collector.AddrRecord) bool {
		samples = append(samples, r.Lifetime().Seconds())
		return true
	})
	return stats.TakeDistribution(samples)
}

// sampleFigure2a is the oracle for ComputeFigure2aWorkers: Figure 2a
// read from the sorted samples by Distribution.CDF and CCDF.
func sampleFigure2a(c *collector.Collector) *Figure2a {
	d := addressLifetimes(c)
	f := &Figure2a{CCDF: make([]stats.CDFPoint, len(LifetimeMarks))}
	for i, m := range LifetimeMarks {
		f.CCDF[i] = stats.CDFPoint{X: m.Seconds(), Y: d.CCDF(m.Seconds())}
	}
	if d.N() == 0 {
		return f
	}
	f.ObservedOnce = d.CDF(0)
	f.WeekOrLonger = d.CCDF((7*24*time.Hour - time.Second).Seconds())
	f.MonthOrLonger = d.CCDF((30*24*time.Hour - time.Second).Seconds())
	f.SixMonthsOrLonger = d.CCDF((180 * 24 * time.Hour).Seconds())
	return f
}

// sampleFigure2b is the oracle for ComputeFigure2bWorkers: each entropy
// class's IID lifetimes sorted into a distribution and read by CDF and
// CCDF.
func sampleFigure2b(t *collector.IIDTable) *Figure2b {
	var samples [numEntropyClasses][]float64
	t.IIDSlotsRange(0, t.NumIIDSlots(), func(iid addr.IID, r collector.IIDView) bool {
		cls := iid.EntropyClass()
		samples[cls] = append(samples[cls], r.Lifetime().Seconds())
		return true
	})
	f := &Figure2b{
		ByClass:      make(map[addr.EntropyClass]int),
		ObservedOnce: make(map[addr.EntropyClass]float64),
		WeekOrLonger: make(map[addr.EntropyClass]float64),
	}
	for cls, s := range samples {
		if len(s) == 0 {
			continue
		}
		d := stats.TakeDistribution(s)
		k := addr.EntropyClass(cls)
		f.ByClass[k] = d.N()
		f.ObservedOnce[k] = d.CDF(0)
		f.WeekOrLonger[k] = d.CCDF((7*24*time.Hour - time.Second).Seconds())
	}
	return f
}

// studyCorpus replays a world's NTP clients through the pool into a
// collector, as the study's passive collection does.
func studyCorpus(t testing.TB, seed int64, scale float64) *collector.Collector {
	t.Helper()
	w, err := simnet.Build(simnet.DefaultConfig(seed, scale))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := ntppool.New(ntppool.StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := ingest.New(ingest.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ntppool.RunIngest(w, pool, pipe, nil)
	return pipe.Close()
}

// edgeCorpus observes one address per lifetime, each with its own IID
// (the low bytes walk, so entropy classes vary), all from t0.
func edgeCorpus(lifetimes ...time.Duration) *collector.Collector {
	c := collector.New()
	t0 := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	for i, l := range lifetimes {
		lo := uint64(i + 1)
		if i%3 == 1 {
			lo *= 0x9e3779b97f4a7c15 // a high-entropy IID
		}
		a := addr.FromParts(0x20010db8_00000000|uint64(i%5)<<16, lo)
		c.Observe(a, t0, 0)
		c.Observe(a, t0.Add(l), 1)
	}
	return c
}

// TestFigure2MatchesSamples holds the counting folds to the sample
// oracles: reflect.DeepEqual compares every count and every float with
// ==, so any drift in a fraction's arithmetic fails. It runs on study
// corpora and on the edges a count can get wrong: no samples, only zero
// lifetimes, and lifetimes exactly on a mark or a headline threshold.
func TestFigure2MatchesSamples(t *testing.T) {
	week := 7 * 24 * time.Hour
	var onMarks []time.Duration
	for _, m := range LifetimeMarks {
		onMarks = append(onMarks, m, m-time.Second, m+time.Second)
	}
	type corpus struct {
		name  string
		build func() *collector.Collector
	}
	corpora := []corpus{
		{"empty", collector.New},
		{"all zero", func() *collector.Collector { return edgeCorpus(0, 0, 0, 0, 0, 0, 0) }},
		{"on marks", func() *collector.Collector { return edgeCorpus(onMarks...) }},
		{"week-1s", func() *collector.Collector {
			return edgeCorpus(week-time.Second, week-time.Second, 0, week, 30*24*time.Hour-time.Second)
		}},
		{"one sight", func() *collector.Collector { return edgeCorpus(0) }},
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, scale := range []float64{0.02, 0.1} {
			corpora = append(corpora, corpus{fmt.Sprintf("study seed %d scale %v", seed, scale),
				func() *collector.Collector { return studyCorpus(t, seed, scale) }})
		}
	}
	for _, cp := range corpora {
		t.Run(cp.name, func(t *testing.T) {
			c := cp.build()
			tb := c.CopyRecords().IIDTable()
			want2a, want2b := sampleFigure2a(c), sampleFigure2b(tb)
			for _, workers := range []int{1, 2, 8} {
				if got := ComputeFigure2aWorkers(c, workers); !reflect.DeepEqual(got, want2a) {
					t.Errorf("%d workers: Figure 2a %+v, samples give %+v", workers, got, want2a)
				}
				if got := ComputeFigure2bWorkers(tb, workers); !reflect.DeepEqual(got, want2b) {
					t.Errorf("%d workers: Figure 2b %+v, samples give %+v", workers, got, want2b)
				}
			}
		})
	}
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFigure2Allocs gates the counting folds' memory: on a corpus of
// 120 k addresses each figure allocates its per-range counters, not a
// sample per address.
func TestFigure2Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	c := collector.New()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 120_000; i++ {
		a := addr.FromParts(0x20010db8_00000000|uint64(rng.Intn(4096))<<16, rng.Uint64())
		ts := 1_643_673_600 + rng.Int63n(200*86400)
		c.ObserveUnix(a, ts, 0)
		if i%3 == 0 {
			c.ObserveUnix(a, ts+rng.Int63n(40*86400), 1)
		}
	}
	tb := c.CopyRecords().IIDTable()
	const limit = 64 << 10
	if got := allocated(func() { ComputeFigure2aWorkers(c, 2) }); got >= limit {
		t.Errorf("ComputeFigure2aWorkers over %d addresses allocated %d B, want < %d", c.NumAddrs(), got, limit)
	}
	if got := allocated(func() { ComputeFigure2bWorkers(tb, 2) }); got >= limit {
		t.Errorf("ComputeFigure2bWorkers over %d IIDs allocated %d B, want < %d", tb.NumIIDs(), got, limit)
	}
}
