package pager

import (
	"io"
	"testing"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/workload"
)

// countWriter measures a snapshot's size without holding it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkDeltaCheckpoint compares the delta checkpoint against the
// full snapshot it replaces on a lightly-dirtied corpus — the steady
// -state checkpoint workload. SetBytes carries the written size, so the
// MB/s column is checkpoint throughput and the delta/full ns ratio is
// the headline win.
func BenchmarkDeltaCheckpoint(b *testing.B) {
	build := func() *collector.Collector {
		c := collector.New()
		feedEvents(c, 0, 200000)
		c.MarkCheckpointedFull()
		// Re-observe a small slice: the light dirtying a checkpoint
		// interval accumulates.
		feedEvents(c, 1000, 2000)
		return c
	}
	b.Run("mode=delta", func(b *testing.B) {
		c := build()
		var w countWriter
		if err := c.SnapshotDelta(&w); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(w.n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.SnapshotDelta(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mode=full", func(b *testing.B) {
		c := build()
		var w countWriter
		if err := c.Snapshot(&w); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(w.n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Snapshot(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkColdContains measures point lookups against an effectively
// all-cold corpus (budget = one chunk): the miss case is the filter
// fast path — fence search plus bloom probes, no I/O — and the hit case
// pays a full cold chunk load, the honest worst-case probe.
func BenchmarkColdContains(b *testing.B) {
	c := collector.New()
	feedEvents(c, 0, 200000)
	path := writeTierFile(b, c)

	var present []addr.Addr
	c.AddrsCanonical(func(a addr.Addr, _ collector.AddrRecord) bool {
		present = append(present, a)
		return true
	})
	var absent []addr.Addr
	for i := 0; len(absent) < 4096; i++ {
		a := present[int(tmix(uint64(i))%uint64(len(present)))]
		a[15] ^= byte(tmix(uint64(i)+7)) | 1
		if _, ok := c.Get(a); !ok {
			absent = append(absent, a)
		}
	}

	b.Run("filter=miss", func(b *testing.B) {
		pc := openOrDie(b, path, Options{RAMBudget: chunkBytes})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, ok, err := pc.Get(absent[i&4095])
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				b.Fatal("absent key reported present")
			}
		}
	})
	b.Run("filter=hit", func(b *testing.B) {
		pc := openOrDie(b, path, Options{RAMBudget: chunkBytes})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := present[int(tmix(uint64(i))%uint64(len(present)))]
			_, ok, err := pc.Get(a)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				b.Fatal("present key reported absent")
			}
		}
	})
}

// paperCorpus is the paper profile at the repository benchmark's size
// (>= 200k addresses), as a stream and its first cut events folded into
// a collector.
func paperCorpus(b *testing.B, cut float64) (*collector.Collector, []ingest.Event) {
	p, _ := workload.Lookup("paper")
	st, err := p.Stream(1, workload.Size{Scale: 0.5, Days: 218})
	if err != nil {
		b.Fatal(err)
	}
	c := collector.New()
	for _, ev := range st.Events[:int(cut*float64(len(st.Events)))] {
		c.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
	}
	return c, st.Events
}

// BenchmarkWriteTier measures one whole tier rewrite — the canonical
// order, the directory with its blooms and every chunk section — over
// the paper profile at the repository benchmark's size (>= 200k
// addresses). MB/s is tier-file bytes produced; the daemon pays this on
// every full checkpoint under -corpus.rambudget.
func BenchmarkWriteTier(b *testing.B) {
	c, _ := paperCorpus(b, 1)
	if c.NumAddrs() < 200_000 {
		b.Fatalf("corpus holds %d addrs, want >= 200k", c.NumAddrs())
	}
	var w countWriter
	if err := WriteTier(c, &w); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(w.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteTier(c, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteTierRun measures what a delta checkpoint publishes
// instead of BenchmarkWriteTier's rewrite: one run over the same corpus,
// holding the records of the blocks a delta carries. A serve-durable
// cycle's delta carries about 12k records (its re-sightings dirty
// blocks all over the slab); fed in stream order
// to one collector, the slice from 80 % to 84.5 % of the stream dirties
// and grows as many. The records metric is the run's size.
func BenchmarkWriteTierRun(b *testing.B) {
	const base, slice = 0.80, 0.045
	c, evs := paperCorpus(b, base)
	c.MarkCheckpointedFull()
	for _, ev := range evs[int(base*float64(len(evs))):int((base+slice)*float64(len(evs)))] {
		c.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
	}
	c.MarkCheckpointedDelta()
	n := c.LastDeltaRecords().NumAddrs()
	var w countWriter
	if err := WriteTier(c.LastDeltaRecords(), &w); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(w.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteTier(c.LastDeltaRecords(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "records")
}
