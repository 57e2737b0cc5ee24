package ingest

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/simnet"
)

// storeChecksum is the canonical checksum of a store's merged corpus.
func storeChecksum(s *collector.Store) (sum [32]byte) {
	s.View(func(c *collector.Collector) { sum = c.Checksum() })
	return sum
}

// storeTotal is a store's merged sighting count.
func storeTotal(s *collector.Store) (n uint64) {
	s.View(func(c *collector.Collector) { n = c.TotalObservations() })
	return n
}

// testEvents materializes a small deterministic event stream with
// vantage indices spread over [0, 27).
func testEvents(t testing.TB, scale float64, days int) []Event {
	t.Helper()
	cfg := simnet.DefaultConfig(17, scale)
	cfg.Days = days
	w, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	i := 0
	w.GenerateQueries(func(q simnet.Query) {
		events = append(events, Event{
			Addr:   q.Addr,
			Time:   q.Time.Unix(),
			Server: int32(i % 27),
		})
		i++
	})
	if len(events) == 0 {
		t.Fatal("no events generated")
	}
	return events
}

// serialChecksum folds the stream into one collector the pre-pipeline
// way and returns its canonical checksum.
func serialChecksum(events []Event) [32]byte {
	c := collector.New()
	for _, ev := range events {
		c.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
	}
	return c.Checksum()
}

func TestPipelineMatchesSerial(t *testing.T) {
	events := testEvents(t, 0.03, 10)
	want := serialChecksum(events)

	cfg := DefaultConfig()
	cfg.BatchSize = 64
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Ingest(events)
	merged := p.Close()
	if got := merged.Checksum(); got != want {
		t.Error("pipeline corpus differs from serial")
	}
	if merged.TotalObservations() != uint64(len(events)) {
		t.Errorf("%d observations, want %d", merged.TotalObservations(), len(events))
	}
	m := p.Metrics()
	if m.Processed != uint64(len(events)) || m.Enqueued != uint64(len(events)) {
		t.Errorf("metrics processed=%d enqueued=%d, want %d",
			m.Processed, m.Enqueued, len(events))
	}
	if m.Dropped != 0 {
		t.Errorf("%d drops under blocking admission", m.Dropped)
	}
}

// TestResightWritesInPlace: re-sighting a preloaded corpus through the
// pipeline folds every batch into the Store's records in place.
// Nothing is written a second time — no per-epoch worker corpus, no
// merge — so the re-sight allocates a small fraction of the corpus's
// footprint (a design that staged each record in a worker-private
// collector first allocates several times the footprint here).
func TestResightWritesInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	events := make([]Event, 50000)
	for i := range events {
		events[i] = Event{Addr: addr.FromParts(0x20010db8_00000000|uint64(i>>8), uint64(i)+1), Time: 1643673600, Server: int32(i % 27)}
	}
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Ingest(events)
	p.Quiesce()
	footprint := p.Store().MemoryFootprint()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.Ingest(events)
	p.Quiesce()
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated*20 >= footprint {
		t.Errorf("re-sighting %d addresses allocated %d B, not under 5%% of the corpus's %d B", len(events), allocated, footprint)
	}
	if got := storeTotal(p.Store()); got != 2*uint64(len(events)) {
		t.Errorf("store holds %d observations, want %d", got, 2*len(events))
	}
}

func TestQuiesceLiveView(t *testing.T) {
	events := testEvents(t, 0.03, 10)
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.Ingest(events[:len(events)/2])
	p.Quiesce()
	if got := storeTotal(p.Store()); got != uint64(len(events)/2) {
		t.Fatalf("live store holds %d/%d observations after the quiesce", got, len(events)/2)
	}
	p.Ingest(events[len(events)/2:])
	merged := p.Close()
	if merged.TotalObservations() != uint64(len(events)) {
		t.Errorf("final observations %d, want %d",
			merged.TotalObservations(), len(events))
	}
	if got, want := merged.Checksum(), serialChecksum(events); got != want {
		t.Error("mid-run snapshot changed the final corpus")
	}
}

// TestStageFreshWithoutQuiesce: the stages are current to the worker's
// last batch. Once Metrics counts every flushed event processed, a
// StageView read with no Quiesce in between already holds them all.
func TestStageFreshWithoutQuiesce(t *testing.T) {
	events := testEvents(t, 0.01, 3)
	cfg := DefaultConfig()
	cfg.Stages = []StageFactory{Categories()}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	b := p.NewBatcher()
	for _, ev := range events {
		b.Add(ev)
	}
	b.Flush()
	deadline := time.Now().Add(10 * time.Second)
	for p.Metrics().Processed != uint64(len(events)) {
		if time.Now().After(deadline) {
			t.Fatalf("worker processed %d of %d events", p.Metrics().Processed, len(events))
		}
		time.Sleep(time.Millisecond)
	}
	var sum uint64
	p.StageView(func(stages []Stage) {
		for _, n := range stages[0].(*CategoryStage).Counts {
			sum += n
		}
	})
	if sum != uint64(len(events)) {
		t.Errorf("stage view counts %d sightings, want the %d processed", sum, len(events))
	}
}

func TestStages(t *testing.T) {
	events := testEvents(t, 0.03, 10)
	day0 := events[0].Time
	dayEnd := day0 + 86400

	cfg := DefaultConfig()
	cfg.Stages = []StageFactory{
		Categories(),
		Cardinality(12),
		DaySlice(day0, dayEnd),
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Ingest(events)
	merged := p.Close()

	// Categories: per-sighting tally must equal a direct pass.
	var want [addr.NumCategories]uint64
	for _, ev := range events {
		want[ev.Addr.IID().StructuralCategory()]++
	}
	cats := p.Stage("categories").(*CategoryStage)
	if cats.Counts != want {
		t.Errorf("category counts %v, want %v", cats.Counts, want)
	}

	// Cardinality: the merged union sketch must estimate the exact
	// unique-address count within a loose multiple of its stated error.
	hll := p.Stage("cardinality").(*HLLStage)
	exact := float64(merged.NumAddrs())
	est := hll.H.Estimate()
	if rel := math.Abs(est-exact) / exact; rel > 5*hll.H.RelativeError() {
		t.Errorf("HLL estimate %.0f vs exact %.0f: rel err %.3f", est, exact, rel)
	}

	// Day slice: identical to a serially filtered collector.
	serialDay := collector.New()
	for _, ev := range events {
		if ev.Time >= day0 && ev.Time < dayEnd {
			serialDay.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
		}
	}
	if serialDay.TotalObservations() == 0 {
		t.Fatal("day slice empty; bad test window")
	}
	day := p.Stage("dayslice").(*DaySliceStage)
	if got, want := day.Col.Checksum(), serialDay.Checksum(); got != want {
		t.Error("day-slice corpus differs from serial filter")
	}

	if p.Stage("no-such-stage") != nil {
		t.Error("unknown stage name should return nil")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Shards: -1},
		{Shards: 2},
		{BatchSize: -2},
		{QueueDepth: -3},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("config %+v should be rejected", bad)
		}
	}
}

// gateStage blocks the first Process call until released: a way to wedge
// the worker so admission-policy behaviour is deterministic, and a
// proof the Stage plug point accepts outside implementations.
type gateStage struct {
	once    sync.Once
	release chan struct{}
}

func (g *gateStage) Name() string { return "gate" }
func (g *gateStage) Process(Event) {
	g.once.Do(func() { <-g.release })
}

func TestDropOnFullShedsLoad(t *testing.T) {
	gate := &gateStage{release: make(chan struct{})}
	cfg := Config{
		Shards:     1,
		BatchSize:  1,
		QueueDepth: 1,
		DropOnFull: true,
		Stages:     []StageFactory{func() Stage { return gate }},
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := addr.MustParse("2001:db8::42")
	b := p.NewBatcher()
	// First event wedges the worker; second fills the queue; everything
	// after must be shed rather than block this goroutine.
	for i := 0; i < 10; i++ {
		b.Add(Event{Addr: a, Time: int64(1000 + i), Server: 0})
	}
	b.Flush()
	m := p.Metrics()
	if m.Dropped == 0 {
		t.Error("no drops despite a wedged worker and full queue")
	}
	if m.Enqueued+m.Dropped != 10 {
		t.Errorf("enqueued %d + dropped %d != 10", m.Enqueued, m.Dropped)
	}
	close(gate.release)
	merged := p.Close()
	if got := merged.TotalObservations(); got != m.Enqueued {
		t.Errorf("merged %d observations, want the %d admitted", got, m.Enqueued)
	}
}

func TestParseEventRoundTrip(t *testing.T) {
	cases := []Event{
		{Addr: addr.MustParse("2001:db8::1"), Time: 1643673600, Server: 0},
		{Addr: addr.MustParse("2a02:8071:22c1:d800:beee:7bff:fe00:1"), Time: 1656633600, Server: 26},
		{Addr: addr.MustParse("::1"), Time: 0, Server: -1},
	}
	for _, want := range cases {
		line := want.AppendText(nil)
		got, err := ParseEventBytes(line[:len(line)-1])
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if got != want {
			t.Errorf("round trip %q: got %+v want %+v", line, got, want)
		}
	}
	for _, bad := range []string{
		"", "1234", "x 2001:db8::1", "1234 not-an-addr",
		"1234 2001:db8::1 banana", "1 2 3 4",
		// Server indices outside [-1, MaxServers) would be silently
		// mis-attributed (saturated onto the top bit) — the codec rejects.
		"1234 2001:db8::1 -2",
		"1234 2001:db8::1 32",
		"1234 2001:db8::1 4096",
	} {
		if _, err := ParseEventBytes([]byte(bad)); err == nil {
			t.Errorf("ParseEventBytes(%q) should fail", bad)
		}
	}
}
