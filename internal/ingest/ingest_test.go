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

	for _, shards := range []int{1, 3, 8} {
		cfg := DefaultConfig(shards)
		cfg.BatchSize = 64
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Ingest(events)
		merged := p.Close()
		if got := merged.Checksum(); got != want {
			t.Errorf("shards=%d: merged corpus differs from serial", shards)
		}
		if merged.TotalObservations() != uint64(len(events)) {
			t.Errorf("shards=%d: %d observations, want %d",
				shards, merged.TotalObservations(), len(events))
		}
		m := p.Metrics()
		if m.Processed != uint64(len(events)) || m.Enqueued != uint64(len(events)) {
			t.Errorf("shards=%d: metrics processed=%d enqueued=%d, want %d",
				shards, m.Processed, m.Enqueued, len(events))
		}
		if m.Dropped != 0 {
			t.Errorf("shards=%d: %d drops under blocking admission", shards, m.Dropped)
		}
	}
}

// TestResightWritesInPlace: re-sighting a preloaded corpus through a
// 2-shard pipeline folds every batch into the Store's records in place.
// Nothing is written a second time — no per-epoch shard corpus, no
// merge — so the re-sight allocates a small fraction of the corpus's
// footprint (a design that staged each record in a shard collector
// first allocates several times the footprint here).
func TestResightWritesInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	events := make([]Event, 50000)
	for i := range events {
		events[i] = Event{Addr: addr.FromParts(0x20010db8_00000000|uint64(i>>8), uint64(i)+1), Time: 1643673600, Server: int32(i % 27)}
	}
	p, err := New(DefaultConfig(2))
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
	p, err := New(DefaultConfig(4))
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

// TestTickerOnlyWithStages: a SnapshotInterval starts a ticker only
// when there are stages to merge. A pipeline with a stage serves as the
// clock: once its ticker has rung a few rounds, a stage-less pipeline
// on the same interval, alive the whole time, must have merged only at
// its two Quiesce calls and its Close, once per shard each.
func TestTickerOnlyWithStages(t *testing.T) {
	events := testEvents(t, 0.01, 3)
	const shards = 2
	cfg := DefaultConfig(shards)
	cfg.SnapshotInterval = time.Microsecond
	bare, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stages = []StageFactory{Categories()}
	clock, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bare.Ingest(events)
	bare.Quiesce()
	for clock.Metrics().Snapshots < 10*shards {
		runtime.Gosched()
	}
	clock.Close()
	bare.Quiesce()
	bare.Close()
	if got, want := bare.Metrics().Snapshots, uint64(3*shards); got != want {
		t.Errorf("stage-less pipeline merged %d times, want %d (2 quiesces + close, per shard)", got, want)
	}
}

func TestStages(t *testing.T) {
	events := testEvents(t, 0.03, 10)
	day0 := events[0].Time
	dayEnd := day0 + 86400

	cfg := DefaultConfig(4)
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

func TestServerCapSaturation(t *testing.T) {
	a := addr.MustParse("2001:db8::1")
	cfg := DefaultConfig(1)
	cfg.ServerCap = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Ingest([]Event{
		{Addr: a, Time: 1000, Server: 3},
		{Addr: a, Time: 1001, Server: 40}, // beyond the cap: saturates to 7
		{Addr: a, Time: 1002, Server: -1}, // unattributed: no bit
	})
	merged := p.Close()
	r, ok := merged.Get(a)
	if !ok {
		t.Fatal("address not recorded")
	}
	want := collector.ServerBit(3) | collector.ServerBit(7)
	if r.Servers != want {
		t.Errorf("server mask %#x, want %#x", r.Servers, want)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Shards: -1},
		{BatchSize: -2},
		{QueueDepth: -3},
		{ServerCap: collector.MaxServers + 1},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("config %+v should be rejected", bad)
		}
	}
}

// gateStage blocks the first Process call until released: a way to wedge
// a shard worker so admission-policy behaviour is deterministic, and a
// proof the Stage plug point accepts outside implementations.
type gateStage struct {
	once    sync.Once
	release chan struct{}
}

func (g *gateStage) Name() string { return "gate" }
func (g *gateStage) Process(Event) {
	g.once.Do(func() { <-g.release })
}
func (g *gateStage) Merge(Stage) {}

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
		t.Error("no drops despite a wedged shard and full queue")
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

// TestShardOfLeavesTableBitsAlone: the addresses one of 16 shards is
// handed must probe its address table like any 100,000 addresses would.
// With the shard taken from the hash's low bits (hash % 16) they shared
// the four bits the table spreads by first, and the mean probe length
// read 4.05 against 1.31.
func TestShardOfLeavesTableBitsAlone(t *testing.T) {
	const n, shards = 100_000, 16
	state := uint64(0x5eed)
	next := func() addr.Addr {
		state += 0x9e3779b97f4a7c15
		return addr.FromParts(0x2001_0db8_0000_0000|state>>40, state*0xbf58476d1ce4e5b9)
	}
	serial, shard := collector.New(), collector.New()
	for serial.NumAddrs() < n {
		serial.ObserveUnix(next(), 1643068800, 0)
	}
	perShard := make([]int, shards)
	for shard.NumAddrs() < n {
		a := next()
		sh := shardOf(a, shards)
		perShard[sh]++
		if sh == 0 {
			shard.ObserveUnix(a, 1643068800, 0)
		}
	}
	want, got := serial.AddrIndexStats(), shard.AddrIndexStats()
	if got.Slots != want.Slots {
		t.Fatalf("tables differ in size: %d vs %d slots", got.Slots, want.Slots)
	}
	if got.MeanProbe > want.MeanProbe*1.10 {
		t.Errorf("a 1-of-%d shard's table probes %.2f slots a key (p99 %d), any %d addresses' %.2f (p99 %d)",
			shards, got.MeanProbe, got.P99Probe, n, want.MeanProbe, want.P99Probe)
	}
	for sh, k := range perShard {
		if k < n*9/10 || k > n*11/10 {
			t.Errorf("shard %d was handed %d addresses while shard 0 took %d: not an even split", sh, k, n)
		}
	}
}
