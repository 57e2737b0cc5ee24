package collector

import (
	"runtime"
	"sync"
	"testing"

	"hitlist6/internal/addr"
)

// The collector memory benchmarks quantify the flat-slab engine against
// the seed's pointer-per-record layout (reproduced below verbatim) on
// the same ~1M-unique-address stream. Run with
//
//	go test -bench BenchmarkCollectorMemory -benchmem ./internal/collector
//
// and compare B/op, allocs/op and the live_B/addr metric across the
// layout= variants; the flat engine must stay >= 2x below the seed on
// bytes and allocations per unique address with events/sec no worse.

// ---- seed-layout baseline ----
//
// seedCollector is the pre-refactor storage shape: one heap-allocated
// record per unique address and IID, and a nested map of *Span per
// EUI-64 IID. Kept only as the benchmark baseline.

type seedSpan struct{ First, Last int64 }

type seedIIDRecord struct {
	First, Last int64
	Count       uint32
	P64s        map[addr.Prefix64]*seedSpan
}

type seedCollector struct {
	addrs map[addr.Addr]*AddrRecord
	iids  map[addr.IID]*seedIIDRecord
	total uint64
}

func newSeedCollector() *seedCollector {
	return &seedCollector{
		addrs: make(map[addr.Addr]*AddrRecord),
		iids:  make(map[addr.IID]*seedIIDRecord),
	}
}

func (c *seedCollector) NumAddrs() int { return len(c.addrs) }

func (c *seedCollector) ObserveUnix(a addr.Addr, ts int64, server int) {
	serverBit := ServerBit(server)
	c.total++

	if r, ok := c.addrs[a]; ok {
		if ts < r.First {
			r.First = ts
		}
		if ts > r.Last {
			r.Last = ts
		}
		r.Count++
		r.Servers |= serverBit
	} else {
		c.addrs[a] = &AddrRecord{First: ts, Last: ts, Count: 1, Servers: serverBit}
	}

	iid := a.IID()
	r, ok := c.iids[iid]
	if !ok {
		r = &seedIIDRecord{First: ts, Last: ts}
		if iid.IsEUI64() {
			r.P64s = make(map[addr.Prefix64]*seedSpan, 1)
		}
		c.iids[iid] = r
	} else {
		if ts < r.First {
			r.First = ts
		}
		if ts > r.Last {
			r.Last = ts
		}
	}
	r.Count++
	if r.P64s != nil {
		p := a.P64()
		if sp, ok := r.P64s[p]; ok {
			if ts < sp.First {
				sp.First = ts
			}
			if ts > sp.Last {
				sp.Last = ts
			}
		} else {
			r.P64s[p] = &seedSpan{First: ts, Last: ts}
		}
	}
}

// ---- benchmark stream ----

type benchEvent struct {
	a      addr.Addr
	ts     int64
	server int
}

var (
	benchStreamOnce sync.Once
	benchStream     []benchEvent
	benchUniques    int
)

// collectorBenchStream materializes a deterministic ~1.5M-event stream
// with >= 1M unique addresses shaped like the paper's corpus at reduced
// scale: random-IID clients clustered ~16 per /64 and ~64 per /48
// (Table 1: 7.9B addresses over 540M /64s and 167M /48s), ~20% repeat
// sightings, and an EUI-64 subset (~4%) whose MACs renumber across /64s.
func collectorBenchStream() ([]benchEvent, int) {
	benchStreamOnce.Do(func() {
		const n = 1_500_000
		state := uint64(0x1157)
		macs := make([]addr.MAC, 1<<12)
		for i := range macs {
			v := splitmix64(&state)
			macs[i] = addr.MAC{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), byte(v >> 32), byte(v >> 40)}
		}
		// 64k /64s, four per /48: the paper's client-density shape.
		p64Of := func(id uint64) uint64 {
			id &= 0xffff
			return 0x20010db8_00000000 | (id>>2)<<16 | id&3
		}
		events := make([]benchEvent, 0, n)
		uniq := make(map[addr.Addr]struct{}, n)
		base := int64(1643068800)
		for i := 0; i < n; i++ {
			r := splitmix64(&state)
			var a addr.Addr
			switch {
			case r%25 == 0:
				// EUI-64 device in one of the /64s.
				a = addr.FromParts(p64Of(r>>16), uint64(addr.EUI64FromMAC(macs[r%uint64(len(macs))])))
			case r%5 == 1 && len(events) > 0:
				// Repeat sighting of an earlier address.
				a = events[splitmix64(&state)%uint64(len(events))].a
			default:
				a = addr.FromParts(p64Of(r>>16), splitmix64(&state))
			}
			events = append(events, benchEvent{a: a, ts: base + int64(i)/16, server: int(r % 27)})
			uniq[a] = struct{}{}
		}
		benchStream = events
		benchUniques = len(uniq)
	})
	return benchStream, benchUniques
}

type corpus interface{ NumAddrs() int }

// benchCorpusBuild measures one layout: per-build allocation volume
// (B/op, allocs/op via -benchmem), the retained live_B/addr of the
// final corpus, and events/sec throughput.
func benchCorpusBuild(b *testing.B, build func(events []benchEvent) corpus) {
	events, uniques := collectorBenchStream()
	if uniques < 1_000_000 {
		b.Fatalf("stream has %d uniques, want >= 1M", uniques)
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var keep corpus
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keep = build(events)
	}
	b.StopTimer()
	if keep.NumAddrs() != uniques {
		b.Fatalf("corpus holds %d addrs, want %d", keep.NumAddrs(), uniques)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if live := float64(after.HeapAlloc) - float64(before.HeapAlloc); live > 0 {
		b.ReportMetric(live/float64(uniques), "live_B/addr")
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	runtime.KeepAlive(keep)
}

func BenchmarkCollectorMemory(b *testing.B) {
	b.Run("layout=flat", func(b *testing.B) {
		benchCorpusBuild(b, func(events []benchEvent) corpus {
			c := New()
			for _, ev := range events {
				c.ObserveUnix(ev.a, ev.ts, ev.server)
			}
			return c
		})
	})
	b.Run("layout=seed", func(b *testing.B) {
		benchCorpusBuild(b, func(events []benchEvent) corpus {
			c := newSeedCollector()
			for _, ev := range events {
				c.ObserveUnix(ev.a, ev.ts, ev.server)
			}
			return c
		})
	})
}

// TestFlatLayoutAllocWin makes the benchmark's headline self-enforcing
// at reduced scale: building the same corpus must cost the flat engine
// at most half the seed layout's heap allocations (in practice it is
// orders of magnitude fewer — slab growth amortizes to O(log n)
// allocations where the seed paid O(n)).
func TestFlatLayoutAllocWin(t *testing.T) {
	events, _ := collectorBenchStream()
	events = events[:120_000]
	flat := testing.AllocsPerRun(1, func() {
		c := New()
		for _, ev := range events {
			c.ObserveUnix(ev.a, ev.ts, ev.server)
		}
	})
	seed := testing.AllocsPerRun(1, func() {
		c := newSeedCollector()
		for _, ev := range events {
			c.ObserveUnix(ev.a, ev.ts, ev.server)
		}
	})
	if flat*2 > seed {
		t.Errorf("flat layout allocs %.0f vs seed %.0f: want >= 2x fewer", flat, seed)
	}
}

// shardEpochs splits the head of collectorBenchStream that holds as many
// addresses as the repository benchmark's stream (≈212 k) the way a
// two-shard pipeline does — by the top bit of addr.Hash64, which is what
// ingest's shardOf picks at two shards — into shard 0's events and shard
// 1's. At the daemon's default snapshot interval a stream of this size
// is one epoch per shard.
func shardEpochs() (own, other []benchEvent) {
	events, _ := collectorBenchStream()
	for _, ev := range events[:265_000] {
		if ev.a.Hash64()>>63 == 0 {
			own = append(own, ev)
		} else {
			other = append(other, ev)
		}
	}
	return own, other
}

func fillShard(events []benchEvent) *Collector {
	c := New()
	for _, ev := range events {
		c.ObserveUnix(ev.a, ev.ts, ev.server)
	}
	return c
}

var (
	shardSink *Collector
	tableSink *IIDTable
)

// BenchmarkBufferFill times a shard worker's share of an event: one
// shard's epoch of collectorBenchStream into a fresh Collector, index
// growth included.
func BenchmarkBufferFill(b *testing.B) {
	own, _ := shardEpochs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shardSink = fillShard(own)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(own)), "ns/event")
}

// BenchmarkApplyShard times Store.ApplyShard per record: shard 0's
// epoch, as a filled Collector, absorbed into a Store that holds —
// empty: nothing (the shard's slab and index move over); grow: shard
// 1's epoch (every record new, the index growing under it); collide:
// both epochs (every record a re-sighting).
func BenchmarkApplyShard(b *testing.B) {
	own, other := shardEpochs()
	for _, tc := range []struct {
		name   string
		before [][]benchEvent
	}{{"empty", nil}, {"grow", [][]benchEvent{other}}, {"collide", [][]benchEvent{own, other}}} {
		b.Run(tc.name, func(b *testing.B) {
			records := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := NewStore()
				for _, evs := range tc.before {
					s.ApplyShard(fillShard(evs))
				}
				part := fillShard(own)
				records += part.NumAddrs()
				b.StartTimer()
				s.ApplyShard(part)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
		})
	}
}

// BenchmarkIIDTable times the read-time IID fold: one IIDTable folded
// from the sorted records of both shard epochs, the repository
// benchmark's address count.
func BenchmarkIIDTable(b *testing.B) {
	own, other := shardEpochs()
	r := fillShard(append(own, other...)).TakeRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tableSink = r.IIDTable()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r.NumAddrs()), "ns/addr")
}

// BenchmarkCanonicalOrder measures the canonical-order kernels alone on
// a paper-shaped corpus of >= 200k addresses: the record copy and its
// in-place radix sort, the cost every Checksum, AddrsCanonical walk and
// tier rewrite pays once, and the IID keys with theirs.
func BenchmarkCanonicalOrder(b *testing.B) {
	events, _ := collectorBenchStream()
	c := New()
	for _, ev := range events[:300_000] {
		c.ObserveUnix(ev.a, ev.ts, ev.server)
	}
	if c.NumAddrs() < 200_000 {
		b.Fatalf("corpus holds %d addrs, want >= 200k", c.NumAddrs())
	}
	b.Run("addr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := c.CopyRecords()
			if r.CanonicalOrder(); r.NumAddrs() != c.NumAddrs() {
				b.Fatalf("ordered %d of %d addrs", r.NumAddrs(), c.NumAddrs())
			}
		}
	})
	b.Run("iid", func(b *testing.B) {
		t := c.CopyRecords().IIDTable()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := t.sortedIIDRefs(); len(got) != t.NumIIDs() {
				b.Fatalf("ordered %d of %d IIDs", len(got), t.NumIIDs())
			}
		}
	})
}
