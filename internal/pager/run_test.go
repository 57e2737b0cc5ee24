package pager

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/telemetry"
	"hitlist6/internal/workload"
)

// tierModel drives a collector through the checkpoints a daemon runs —
// a full checkpoint writes the base, a delta checkpoint one run — and
// keeps beside it the tier they publish, opened at several budgets, and
// want, the record the newest tier file holding each address holds.
type tierModel struct {
	tb      testing.TB
	dir     string
	event   func(i int) (addr.Addr, int64, int)
	c       *collector.Collector
	fed     int // events [0, fed) have been observed at least once
	runs    int // runs written since the base
	synced  bool
	want    map[addr.Addr]collector.AddrRecord
	budgets []int64 // halfBase: half the base file's size
	tiers   []*Corpus
}

const halfBase = -1

func newTierModel(tb testing.TB, event func(i int) (addr.Addr, int64, int), budgets ...int64) *tierModel {
	m := &tierModel{tb: tb, dir: tb.TempDir(), event: event, c: collector.New(), budgets: budgets}
	tb.Cleanup(m.closeTiers)
	return m
}

func (m *tierModel) closeTiers() {
	for _, pc := range m.tiers {
		pc.Close()
	}
	m.tiers = nil
}

// observe folds events [lo, hi) into the collector: new addresses past
// fed, sightings of known ones below it.
func (m *tierModel) observe(lo, hi int) {
	for i := lo; i < hi; i++ {
		a, ts, srv := m.event(i)
		m.c.ObserveUnix(a, ts, srv)
	}
	m.fed = max(m.fed, hi)
	m.synced = false
}

func (m *tierModel) basePath() string { return filepath.Join(m.dir, "corpus.tier") }

func (m *tierModel) write(path string, enc func(*collector.Collector, *os.File) error) {
	m.tb.Helper()
	f, err := os.Create(path)
	if err != nil {
		m.tb.Fatal(err)
	}
	if err := enc(m.c, f); err != nil {
		m.tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		m.tb.Fatal(err)
	}
}

// full writes the base and reopens every tier on it alone.
func (m *tierModel) full() {
	m.tb.Helper()
	m.c.MarkCheckpointedFull()
	m.write(m.basePath(), func(c *collector.Collector, f *os.File) error { return WriteTier(c, f) })
	m.want = make(map[addr.Addr]collector.AddrRecord, m.c.NumAddrs())
	m.c.AddrsRange(0, m.c.NumAddrs(), func(a addr.Addr, r collector.AddrRecord) bool {
		m.want[a] = r
		return true
	})
	fi, err := os.Stat(m.basePath())
	if err != nil {
		m.tb.Fatal(err)
	}
	m.closeTiers()
	for _, b := range m.budgets {
		if b == halfBase {
			b = max(fi.Size()/2, 1)
		}
		m.tiers = append(m.tiers, openOrDie(m.tb, m.basePath(), Options{RAMBudget: b, Metrics: NewMetrics(telemetry.NewRegistry())}))
	}
	m.runs, m.synced = 0, true
}

// delta marks a delta checkpoint and writes its run — first folding
// events [lo, hi) in between when hi > lo, as merges landing between a
// daemon's checkpoint and its run do — and attaches the run to every
// tier. Without a base it writes the base instead.
func (m *tierModel) delta(lo, hi int) {
	m.tb.Helper()
	if _, based := m.c.CheckpointSeq(); !based {
		m.full()
		return
	}
	m.c.MarkCheckpointedDelta()
	m.observe(lo, hi)
	m.runs++
	path := fmt.Sprintf("%s.%06d", m.basePath(), m.runs)
	m.write(path, func(c *collector.Collector, f *os.File) error { return WriteTier(c.LastDeltaRecords(), f) })
	for a, r := range m.c.LastDeltaRecords().CanonicalOrder() {
		m.want[a] = r
	}
	for _, pc := range m.tiers {
		if err := pc.AddRun(path); err != nil {
			m.tb.Fatal(err)
		}
	}
	m.synced = hi <= lo
}

// check looks every address the collector holds up in every tier: each
// answers want's record — exactly the collector's right after a
// checkpoint with nothing folded in between — and nothing for an
// address no tier file holds or the collector never saw, with residency
// within budget (or on the one-chunk floor) after every lookup.
func (m *tierModel) check(stage string) {
	m.tb.Helper()
	if m.tiers == nil {
		return
	}
	var absent []addr.Addr
	for ti, pc := range m.tiers {
		budget := m.budgetOf(ti)
		get := func(a addr.Addr) (collector.AddrRecord, bool) {
			m.tb.Helper()
			got, ok, err := pc.Get(a)
			if err != nil {
				m.tb.Fatalf("%s: tier %d: Get(%v): %v", stage, ti, a, err)
			}
			if budget > 0 && pc.ResidentBytes() > budget && pc.ResidentChunks() > 1 {
				m.tb.Fatalf("%s: tier %d: %d bytes in %d chunks resident over the %d budget",
					stage, ti, pc.ResidentBytes(), pc.ResidentChunks(), budget)
			}
			return got, ok
		}
		m.c.AddrsRange(0, m.c.NumAddrs(), func(a addr.Addr, r collector.AddrRecord) bool {
			got, ok := get(a)
			w, held := m.want[a]
			if ok != held || got != w {
				m.tb.Fatalf("%s: tier %d (%d runs): Get(%v) = %+v, %v; newest file holds %+v, %v",
					stage, ti, pc.NumRuns(), a, got, ok, w, held)
			}
			if m.synced && got != r {
				m.tb.Fatalf("%s: tier %d (%d runs): Get(%v) = %+v right after a checkpoint, collector holds %+v",
					stage, ti, pc.NumRuns(), a, got, r)
			}
			if ti == 0 && len(absent) < 256 {
				if b := addr.FromParts(a.Hi(), a.Lo()^0x5a5a); !m.has(b) {
					absent = append(absent, b)
				}
			}
			return true
		})
		for _, a := range absent {
			if _, ok := get(a); ok {
				m.tb.Fatalf("%s: tier %d claims to hold absent %v", stage, ti, a)
			}
		}
	}
}

func (m *tierModel) has(a addr.Addr) bool {
	_, ok := m.c.Get(a)
	return ok
}

func (m *tierModel) budgetOf(ti int) int64 {
	if b := m.budgets[ti]; b != halfBase {
		return b
	}
	fi, err := os.Stat(m.basePath())
	if err != nil {
		m.tb.Fatal(err)
	}
	return max(fi.Size()/2, 1)
}

// TestTierRunsMatchCollector is FuzzTier's run axis made deterministic
// over the paper profile: a base at 70 % of the stream, then delta
// checkpoints that each publish one run — one of them with sightings
// folded in between the checkpoint and the run — and a compaction,
// checked after every step at budgets of unlimited, one chunk and half
// the base file.
func TestTierRunsMatchCollector(t *testing.T) {
	p, _ := workload.Lookup("paper")
	st, err := p.Stream(1, workload.Size{Scale: 0.05, Days: 218})
	if err != nil {
		t.Fatal(err)
	}
	evs := st.Events
	m := newTierModel(t, func(i int) (addr.Addr, int64, int) {
		ev := evs[i]
		return ev.Addr, ev.Time, int(ev.Server)
	}, 0, chunkBytes, halfBase)

	step := len(evs) / 20
	m.observe(0, 14*step)
	m.full()
	m.check("base")
	if m.c.NumAddrs() < 3*TierChunkRecs {
		t.Fatalf("base holds %d addresses, want more than three chunks", m.c.NumAddrs())
	}
	for k := 0; k < 4; k++ {
		lo := (14 + k) * step
		m.observe(lo, lo+step)
		m.check(fmt.Sprintf("fed %d", k))
		if k == 2 {
			m.delta(lo/2, lo/2+step/4) // re-sightings land before the run is cut
			m.check(fmt.Sprintf("run %d (interleaved)", m.runs))
			continue
		}
		m.delta(0, 0)
		m.check(fmt.Sprintf("run %d", m.runs))
	}
	if m.runs < 3 {
		t.Fatalf("wrote %d runs, want >= 3", m.runs)
	}
	m.delta(0, 0) // the run that catches up on the interleaved sightings
	m.check("catch-up run")
	m.observe(18*step, len(evs))
	m.full()
	m.check("compacted")
	if n := m.tiers[0].NumRuns(); n != 0 {
		t.Fatalf("a full checkpoint left %d runs attached", n)
	}
}

// TestTierAddRunUnderReads attaches runs while readers look up keys the
// base holds: every lookup answers, and after the last AddRun every run
// key is served from its run.
func TestTierAddRunUnderReads(t *testing.T) {
	m := newTierModel(t, genEvent, 2*chunkBytes)
	m.observe(0, 30000)
	m.full()
	pc := m.tiers[0]
	var present []addr.Addr
	m.c.AddrsRange(0, m.c.NumAddrs(), func(a addr.Addr, _ collector.AddrRecord) bool {
		present = append(present, a)
		return true
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a := present[tmix(seed+i)%uint64(len(present))]
				if _, ok, err := pc.Get(a); err != nil || !ok {
					errs <- fmt.Errorf("Get(%v) during AddRun: %v, %v", a, ok, err)
					return
				}
			}
		}(uint64(g) * 7919)
	}
	for k := 0; k < 6; k++ {
		m.observe(30000+k*2000, 32000+k*2000)
		m.observe(k*3000, k*3000+500)
		m.delta(0, 0)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m.check("after concurrent AddRuns")
}
