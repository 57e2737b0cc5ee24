package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

const procNetUDP = `   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
 7506: 0100007F:23A3 00000000:0000 07 00000000:00022E00 00:00000000 00000000     0        0 11303 2 00000000fe06e9c8 7
 7600: 00000000:0035 00000000:0000 07 00000000:00000000 00:00000000 00000000   101        0 2222 2 0000000000000000 0
`

func TestParseProcNetUDP(t *testing.T) {
	rxq, drops, err := parseProcNetUDP([]byte(procNetUDP), 0x23A3)
	if err != nil || rxq != 0x22E00 || drops != 7 {
		t.Fatalf("port 0x23A3: rxq=%d drops=%d err=%v, want %d 7 nil", rxq, drops, err, 0x22E00)
	}
	if rxq, drops, err = parseProcNetUDP([]byte(procNetUDP), 53); err != nil || rxq != 0 || drops != 0 {
		t.Fatalf("port 53: rxq=%d drops=%d err=%v", rxq, drops, err)
	}
	if _, _, err = parseProcNetUDP([]byte(procNetUDP), 9999); err == nil {
		t.Fatal("a port with no socket must be an error")
	}
}

func TestParseSchedstatAndStatus(t *testing.T) {
	ns, err := parseSchedstat([]byte("855804161 6534289 40\n"))
	if err != nil || ns != 855804161 {
		t.Fatalf("ns=%d err=%v, want 855804161", ns, err)
	}
	if _, err := parseSchedstat([]byte("855804161 6534289\n")); err == nil {
		t.Fatal("a schedstat line of two fields must be an error")
	}
	kb, err := parseVmHWM([]byte("Name:\tingestd\nVmPeak:\t  999 kB\nVmHWM:\t   41236 kB\nVmRSS:\t 100 kB\n"))
	if err != nil || kb != 41236 {
		t.Fatalf("VmHWM=%d err=%v, want 41236", kb, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tzombie\nState:\tZ\n")); err == nil {
		t.Fatal("a status without VmHWM must be an error")
	}
}

func TestParseProcStat(t *testing.T) {
	steal, busy, err := parseProcStat([]byte("cpu  719725 0 223085 1776404 9943 0 28208 40106 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"))
	if err != nil || steal != 40106 || busy != 719725+223085+28208+40106 {
		t.Fatalf("steal=%d busy=%d err=%v", steal, busy, err)
	}
	if _, _, err := parseProcStat([]byte("cpu  1 2 3 4\n")); err == nil {
		t.Fatal("a cpu line without a steal column must be an error")
	}
}

func TestKeepUndisturbed(t *testing.T) {
	mk := func(steals ...float64) []*repeat {
		var reps []*repeat
		for i, s := range steals {
			reps = append(reps, &repeat{samples: map[string]float64{"x": float64(i)}, steal: s})
		}
		return reps
	}
	cases := []struct {
		name   string
		steals []float64
		want   []float64 // the repeats kept, by index, in run order
	}{
		{"quiet run, two spikes", []float64{0, 0.01, 0.29, 0, 0.02, 0.10, 0, 0.01}, []float64{0, 1, 3, 4, 6, 7}},
		{"noisy spell: the cleanest quarter, at least three", []float64{0.2, 0.1, 0.3, 0.25, 0.15, 0.4, 0.35, 0.22}, []float64{0, 1, 4}},
		{"sixteen noisy repeats: the cleanest four", []float64{.20, .21, .22, .23, .10, .11, .12, .13, .30, .31, .32, .33, .40, .41, .42, .43}, []float64{4, 5, 6, 7}},
		{"too few to choose from", []float64{0.5, 0.6}, []float64{0, 1}},
	}
	for _, c := range cases {
		o := newOutcome()
		o.keepUndisturbed(mk(c.steals...))
		if got := o.samples["x"]; !slices.Equal(got, c.want) {
			t.Errorf("%s: kept %v, want %v", c.name, got, c.want)
		}
		if d := o.layer["host.repeats_dropped"]; int(d) != len(c.steals)-len(c.want) {
			t.Errorf("%s: host.repeats_dropped = %v", c.name, d)
		}
	}
}

func TestOrderStatistics(t *testing.T) {
	v := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if m := median(v); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
	if s := spread(v); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
	for p, want := range map[float64]float64{50: 5, 99: 10, 10: 1, 100: 10, 91: 10, 90: 9} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// fakeClock advances only when slept on or when an operation takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromDue(t *testing.T) {
	start := time.Unix(1000, 0)
	c := &fakeClock{now: start}
	const interval = 2 * time.Millisecond
	// Every operation takes 100µs except the third, which stalls 10ms:
	// the four operations due during the stall go out back to back and
	// each carries the wait it inherited.
	samples := runOpenLoop(c, start, interval, start.Add(10*interval), func(i int) {
		if i == 2 {
			c.Sleep(10 * time.Millisecond)
		} else {
			c.Sleep(100 * time.Microsecond)
		}
	})
	if len(samples) != 10 {
		t.Fatalf("%d operations issued, want all 10 (none skipped)", len(samples))
	}
	us := func(d time.Duration) int64 { return d.Microseconds() }
	wantLat := []int64{100, 100, 10000, 8100, 6200, 4300, 2400, 500, 100, 100}
	wantLate := []int64{0, 0, 0, 8000, 6100, 4200, 2300, 400, 0, 0}
	for i, s := range samples {
		if us(s.latency) != wantLat[i] || us(s.late) != wantLate[i] {
			t.Errorf("op %d: latency %dµs late %dµs, want %d %d", i, us(s.latency), us(s.late), wantLat[i], wantLate[i])
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Name: "a", Parent: 1, StartNS: 10, EndNS: 30},
		{ID: 3, Name: "b overlaps a", Parent: 1, StartNS: 20, EndNS: 50},
		{ID: 4, Name: "c runs past the parent", Parent: 1, StartNS: 90, EndNS: 120},
		{ID: 5, Name: "grandchild", Parent: 2, StartNS: 12, EndNS: 17},
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100) of the parent: 50 of 100.
	for id, want := range map[int]int64{1: 50, 2: 15, 3: 30, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("span %d self time = %d, want %d", id, self[id], want)
		}
	}
}

func TestCoresBusy(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond) }
	samples := []procSample{{at(0), 0}, {at(100), 0.15}, {at(200), 0.35}, {at(300), 0.50}}
	if got := coresBusy(samples); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("coresBusy = %v, want 1.5 (the median of 1.5, 2.0, 1.5)", got)
	}
	if got := coresBusy(samples[:1]); got != 0 {
		t.Errorf("coresBusy of one sample = %v, want 0", got)
	}
	var none *procSampler
	if none.stop() != nil {
		t.Error("a nil sampler must have read nothing")
	}
}

func TestTracerAdoptAndNil(t *testing.T) {
	var none *tracer
	id, end := none.begin(1, 0, "x")
	end(3)
	if id != 0 || none.writeJSONL("/nonexistent/never-written") != nil {
		t.Fatal("a nil tracer must record nothing and write nothing")
	}
	tr := newTracer()
	root, end := tr.begin(7, 0, "root")
	end(1)
	tr.adopt(7, root, []span{{ID: 1, Name: "f1"}, {ID: 2, Name: "f2", Parent: 1}})
	if got := tr.spans[1]; got.ID != 2 || got.Parent != root || got.TraceID != 7 {
		t.Errorf("adopted root = %+v", got)
	}
	if got := tr.spans[2]; got.ID != 3 || got.Parent != 2 {
		t.Errorf("adopted child = %+v", got)
	}
}

func TestJudge(t *testing.T) {
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2} }
	cases := []struct {
		name          string
		a, b          []float64
		better        string
		bound         float64
		want          string
		wantWorseSign float64
	}{
		{"same", tight(100), tight(100), "lower", 0.10, verdictWithin, 0},
		{"slower within bound", tight(100), tight(105), "lower", 0.10, verdictWithin, 1},
		{"slower beyond bound", tight(100), tight(115), "lower", 0.10, verdictRegressed, 1},
		{"throughput fell beyond bound", tight(100), tight(85), "higher", 0.10, verdictRegressed, 1},
		{"throughput rose", tight(100), tight(130), "higher", 0.10, verdictWithin, -1},
		{"spread wider than the bound", wide(100), wide(101), "lower", 0.10, verdictUnresolved, 1},
		{"wide but every b beats every a", wide(100), tight(60), "lower", 0.10, verdictWithin, -1},
		{"cycles far apart but repeating exactly", wide(790), wide(790), "lower", 0.05, verdictWithin, 0},
		{"exact count unchanged", []float64{218, 218, 218}, []float64{218, 218, 218}, "lower", 0, verdictWithin, 0},
		{"exact count grew", []float64{218, 218, 218}, []float64{219, 219, 219}, "lower", 0, verdictRegressed, 1},
		{"failures appeared", []float64{0, 0, 0}, []float64{0, 0.001, 0.001}, "lower", 0, verdictRegressed, 1},
	}
	for _, c := range cases {
		worse, got := judge(c.a, c.b, c.better, c.bound)
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q (worse %+.3f)", c.name, got, c.want, worse)
		}
		if s := math.Copysign(1, worse); worse != 0 && s != c.wantWorseSign || worse == 0 && c.wantWorseSign != 0 {
			t.Errorf("%s: worse = %+.3f, want sign %v", c.name, worse, c.wantWorseSign)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(figs ...float64) []*result {
		var out []*result
		for _, f := range figs {
			out = append(out, &result{Workload: "udp-grow", Attempted: 1, EndToEnd: map[string]summary{
				"cpu_us_per_event": {Unit: "us", Better: "lower", Bound: 0.10, Median: f, Samples: []float64{f}},
			}})
		}
		return out
	}
	a := map[string][]*result{"udp-grow": mk(1.00, 1.01, 0.99)}
	rows, err := compareResults(a, map[string][]*result{"udp-grow": mk(1.20, 1.21, 1.19)})
	if err != nil || len(rows) != 2 || rows[0].metric != "cpu_us_per_event" || rows[0].verdict != verdictRegressed ||
		rows[1].metric != "failed_share" || rows[1].verdict != verdictWithin {
		t.Errorf("rows = %+v", rows)
	}
	if rows, _ := compareResults(a, a); rows[0].verdict != verdictWithin {
		t.Errorf("a set against itself: %+v", rows[0])
	}
	other := mk(1.00)
	other[0].Env.Seed = 2
	if _, err := compareResults(a, map[string][]*result{"udp-grow": other}); err == nil {
		t.Error("runs of different seeds were compared")
	}
}

func TestReference(t *testing.T) {
	st, err := paperStream(1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(0)
	ref.observe(st.Events)
	ref.observe(resight(st))
	if ref.observations != uint64(2*len(st.Events)) {
		t.Errorf("observations = %d, want %d", ref.observations, 2*len(st.Events))
	}
	first := st.Events[0]
	rec := ref.addrs[first.Addr]
	if rec.count < 2 || rec.first > first.Time || rec.last <= first.Time || rec.servers&(1<<uint(first.Server)) == 0 {
		t.Errorf("record of the first address after a re-sighting pass: %+v", rec)
	}
	if _, present := ref.addrs[ref.absentAddr(first.Addr, 1)]; present {
		t.Error("absentAddr returned a present address")
	}
	w := encodeWire(st.Events)
	if w.eventsIn(len(w.datagrams)) != len(st.Events) || w.eventsIn(1) != linesPerDatagram {
		t.Errorf("eventsIn: %d of %d events in all %d datagrams", w.eventsIn(len(w.datagrams)), len(st.Events), len(w.datagrams))
	}
	if n := strings.Count(string(w.datagrams[0]), "\n"); n != linesPerDatagram {
		t.Errorf("first datagram has %d lines, want %d", n, linesPerDatagram)
	}
}

func TestCommas(t *testing.T) {
	for n, want := range map[int]string{0: "0", 999: "999", 1000: "1,000", 824041: "824,041", 1234567: "1,234,567"} {
		if got := commas(n); got != want {
			t.Errorf("commas(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json to the tables the
// program reports from: same workloads, same metrics, units, directions
// and bounds.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, program has %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(contractMetrics) {
		t.Fatalf("%d end_to_end metrics, program has %d", len(spec.EndToEnd), len(contractMetrics))
	}
	for i, d := range contractMetrics {
		m := spec.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound == nil || *m.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v, program has %+v", i, m, d)
		}
	}
	layers := perLayerContract()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("%d per_layer metrics, program has %d", len(spec.PerLayer), len(layers))
	}
	for i, d := range layers {
		m := spec.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != nil {
			t.Errorf("per_layer %d: %+v, program has %+v", i, m, d)
		}
	}
}

// TestSmokeUDPGrow runs one small udp-grow end to end against the real
// ingestd: no datagram lost, and the daemon's corpus equal to the
// reference replay.
func TestSmokeUDPGrow(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip(errUnsupported)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	b, err := newBench(config{seed: 1, scale: 0.05, seconds: 0.1}, "..")
	if err != nil {
		t.Fatal(err)
	}
	defer b.cleanup()
	w := lookupWorkload("udp-grow")
	if err := b.setup(ctx, w); err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	if err := w.run(ctx, b, o); err != nil {
		t.Fatal(err)
	}
	r := newResult(b, w, o)
	if !r.Correct || r.Failed != 0 || r.Attempted < int64(minRepeats*len(b.grow.events)) {
		t.Fatalf("correct=%v failed=%d attempted=%d: %v", r.Correct, r.Failed, r.Attempted, r.Failures)
	}
	if d := r.PerLayer["udp.kernel_drops"].Value; d != 0 {
		t.Errorf("udp.kernel_drops = %v", d)
	}
	if e := r.EndToEnd["events_per_s"]; e.N != minRepeats || e.Median <= 0 {
		t.Errorf("events_per_s = %+v", e)
	}
	var line struct {
		Correct bool
		Metrics map[string]value
	}
	if err := json.Unmarshal([]byte(r.contractLine()), &line); err != nil || !line.Correct || len(line.Metrics) != len(contractMetrics) {
		t.Errorf("contract line %s: %v", r.contractLine(), err)
	}
}
