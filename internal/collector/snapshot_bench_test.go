package collector

import (
	"bytes"
	"sync"
	"testing"

	"hitlist6/internal/addr"
)

// The snapshot benchmarks treat the on-disk format like an index whose
// performance is a feature (the db-index-evaluation model): snapshot
// and restore throughput in MB/s over the paper-shaped 1M-unique
// stream, and restore versus re-ingesting the raw event stream — the
// ratio that justifies checkpoints existing at all. Compare
// BenchmarkRestore's path=restore and path=reingest rows in the
// bench-results artifact: restore must stay ahead. It pays one slab
// load, one index insert and one derive per unique record; re-ingest
// pays the whole observe path per sighting, so the ratio grows with how
// often the stream repeats itself.

var (
	benchSnapOnce    sync.Once
	benchSnapRaw     []byte
	benchSnapStream  []benchEvent
	benchSnapUniques int
)

// restoreBenchStream materializes the checkpoint-shaped workload: 1M
// unique addresses sighted ~6 times each. The repeat factor is the
// point — a checkpointed corpus stands in for a stream accumulated
// over weeks (the paper's window is 218 days; six sightings per
// address is conservative by orders of magnitude), and re-ingesting
// pays the full observe path per sighting while restore pays per
// unique record. collectorBenchStream stays untouched: its ~20%-repeat
// shape is pinned by BenchmarkCollectorMemory's artifact trajectory.
func restoreBenchStream() ([]benchEvent, int) {
	const (
		uniques = 1 << 20
		repeats = 6
	)
	state := uint64(0x5eed1157)
	addrs := make([]addr.Addr, uniques)
	macs := make([]addr.MAC, 1<<12)
	for i := range macs {
		v := splitmix64(&state)
		macs[i] = addr.MAC{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), byte(v >> 32), byte(v >> 40)}
	}
	p64Of := func(id uint64) uint64 {
		id &= 0xffff
		return 0x20010db8_00000000 | (id>>2)<<16 | id&3
	}
	seen := make(map[addr.Addr]struct{}, uniques)
	for i := 0; i < uniques; {
		r := splitmix64(&state)
		var a addr.Addr
		if r%25 == 0 {
			a = addr.FromParts(p64Of(r>>16), uint64(addr.EUI64FromMAC(macs[r%uint64(len(macs))])))
		} else {
			a = addr.FromParts(p64Of(r>>16), splitmix64(&state))
		}
		if _, dup := seen[a]; dup {
			continue
		}
		seen[a] = struct{}{}
		addrs[i] = a
		i++
	}
	base := int64(1643068800)
	events := make([]benchEvent, 0, uniques*repeats)
	for rep := 0; rep < repeats; rep++ {
		for i, a := range addrs {
			r := splitmix64(&state)
			events = append(events, benchEvent{
				a:      a,
				ts:     base + int64(rep)*86400*30 + int64(i%86400),
				server: int(r % 27),
			})
		}
	}
	return events, uniques
}

// benchSnapshot materializes the 1M-address corpus and its snapshot
// once, shared across the snapshot benchmarks.
func benchSnapshot(b *testing.B) ([]byte, []benchEvent, int) {
	b.Helper()
	benchSnapOnce.Do(func() {
		benchSnapStream, benchSnapUniques = restoreBenchStream()
		c := New()
		for _, ev := range benchSnapStream {
			c.ObserveUnix(ev.a, ev.ts, ev.server)
		}
		var buf bytes.Buffer
		if err := c.Snapshot(&buf); err != nil {
			panic(err)
		}
		benchSnapRaw = buf.Bytes()
	})
	return benchSnapRaw, benchSnapStream, benchSnapUniques
}

// BenchmarkSnapshot measures serialization throughput of the 1M-address
// corpus (MB/s is the headline metric).
func BenchmarkSnapshot(b *testing.B) {
	raw, events, uniques := benchSnapshot(b)
	c := New()
	for _, ev := range events {
		c.ObserveUnix(ev.a, ev.ts, ev.server)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(len(raw))
		if err := c.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(raw))/float64(uniques), "snap_B/addr")
}

// BenchmarkRestore pits OpenSnapshot against re-ingesting the stream
// the snapshot came from: the gap checkpoints rest on. Both paths produce the identical corpus (asserted once, outside the
// timing).
func BenchmarkRestore(b *testing.B) {
	raw, events, uniques := benchSnapshot(b)

	restored, err := OpenSnapshot(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	reingested := New()
	for _, ev := range events {
		reingested.ObserveUnix(ev.a, ev.ts, ev.server)
	}
	if restored.Checksum() != reingested.Checksum() {
		b.Fatal("restore and re-ingest disagree — benchmark would compare different corpora")
	}

	b.Run("path=restore", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := OpenSnapshot(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			if c.NumAddrs() != uniques {
				b.Fatalf("restored %d addrs, want %d", c.NumAddrs(), uniques)
			}
		}
		b.ReportMetric(float64(uniques)*float64(b.N)/b.Elapsed().Seconds(), "addrs/sec")
	})
	b.Run("path=reingest", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := New()
			for _, ev := range events {
				c.ObserveUnix(ev.a, ev.ts, ev.server)
			}
			if c.NumAddrs() != uniques {
				b.Fatalf("reingested %d addrs, want %d", c.NumAddrs(), uniques)
			}
		}
		b.ReportMetric(float64(uniques)*float64(b.N)/b.Elapsed().Seconds(), "addrs/sec")
	})
}
