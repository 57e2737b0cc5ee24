package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

const (
	// defaultScale sizes the stream so that one invocation, set-up and
	// teardown included, stays near 25 s on a 2-core box: at seed 1 it
	// is 824,041 events, 212,168 addresses, 32,962 datagrams.
	defaultScale = 0.5
	// setupRepeats is how many undisturbed set-ups an untraced run
	// wants; setup_s is their median.
	setupRepeats = 3
)

// metricDef names one metric the benchmark reports. The end-to-end
// table is what a user of the system sees; the contract subset is
// defined on every workload and is what BENCHMARK.json lists under
// end_to_end. The other end-to-end metrics exist on some workloads only
// and are listed there under per_layer, with the layer metrics. A run's
// figure for a metric is the median of its repeats (or cycles).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the median by which it may worsen
}

// layerDef names one per-layer metric and the end-to-end metric it
// should move; these carry no bound.
type layerDef struct {
	name   string
	unit   string
	better string
	moves  string
}

// Every timing carries the widest bound the contract allows. The box
// these were set on runs one deterministic CPU-bound process (v6study,
// same seed, 200 times in a row) with an interquartile spread of 16 % of
// its median wall time, drifting over minutes; README.md has the series.
// A tighter bound would be tripped by the machine, not by a change.

// contractMetrics are defined on all four workloads.
var contractMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_event", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// surfaceMetrics are user-visible on the workloads that exercise them.
// The two byte counts are functions of the input alone and carry bound
// 0: checkpoint_bytes_per_event over every cycle, and disk_bytes_per_addr
// because at the benchmark's run length the shutdown checkpoint is the
// chain's sixteenth, which compacts it: what is left on disk is one full
// checkpoint and the tier. (A shorter run leaves deltas behind, and
// which 4096-record blocks a delta holds depends on the order shard
// merges laid the records out in: one run in eight differed by a block.)
var surfaceMetrics = []metricDef{
	{"restart_ready_s", "s", "lower", 0.25},
	{"probe_p50_us", "us", "lower", 0.25},
	{"probe_p99_us", "us", "lower", 0.25},
	{"snapshot_to_probe_s", "s", "lower", 0.25},
	{"checkpoint_bytes_per_event", "B", "lower", 0},
	{"disk_bytes_per_addr", "B", "lower", 0},
	{"study_wall_s", "s", "lower", 0.25},
	{"study_cpu_s", "s", "lower", 0.25},
}

// surfaceMoves says where each surface metric is defined, in the place
// of a layer's "moves".
var surfaceMoves = map[string]string{
	"restart_ready_s":            "end-to-end on udp-resight and serve-durable",
	"probe_p50_us":               "end-to-end on serve-durable",
	"probe_p99_us":               "end-to-end on serve-durable",
	"snapshot_to_probe_s":        "end-to-end on serve-durable; most of events_per_s there",
	"checkpoint_bytes_per_event": "end-to-end on serve-durable (exact)",
	"disk_bytes_per_addr":        "end-to-end on serve-durable (exact)",
	"study_wall_s":               "end-to-end on study-batch; events_per_s there is events / study_wall_s",
	"study_cpu_s":                "end-to-end on study-batch; cpu_us_per_event there is study_cpu_s / events",
}

// layerMetrics are the per-layer figures: black-box ones scraped from
// the daemon's /metrics, /stats and /proc, and in-process ones from the
// layer replay, each with the end-to-end metric it should move.
// README.md adds how each is measured and what it should not move.
var layerMetrics = []layerDef{
	{"failed_share", "ratio", "lower", "every workload: operations failed / attempted, expected 0"},
	{"udp.datagrams_per_read", "count", "higher", "cpu_us_per_event, events_per_s on udp-*"},
	{"udp.rxq_high_water_bytes", "B", "lower", "cpu_us_per_event, events_per_s on udp-*"},
	{"udp.kernel_drops", "count", "lower", "failed_share on udp-*: a repeat that lost datagrams is discarded and counted failed"},
	{"udp.sender_wait_share", "ratio", "higher", "validity of udp-*: near 0 the generator, not the daemon, sets events_per_s"},
	{"ingest.parse.ns_per_event", "ns", "lower", "cpu_us_per_event on udp-* (about a third of it)"},
	{"ingest.parse.cpu_ns_per_event", "ns", "lower", "cpu_us_per_event on udp-* (about a third of it)"},
	{"ingest.parse.allocs_per_event", "count", "lower", "cpu_us_per_event, peak_rss_mb on udp-*"},
	{"ingest.pipeline.ns_per_event", "ns", "lower", "events_per_s on udp-*, study_wall_s"},
	{"ingest.pipeline.cpu_ns_per_event", "ns", "lower", "cpu_us_per_event on udp-*, study_cpu_s"},
	{"ingest.pipeline1.ns_per_event", "ns", "lower", "events_per_s on udp-*, study_wall_s (single-thread baseline)"},
	{"ingest.fanout_overhead_ns", "ns", "lower", "events_per_s on udp-grow (the partitioned write path's target)"},
	{"ingest.stage.categories.ns_per_event", "ns", "lower", "cpu_us_per_event on udp-*"},
	{"ingest.stage.cardinality.ns_per_event", "ns", "lower", "cpu_us_per_event on udp-*"},
	{"ingest.batch.busy_share", "ratio", "higher", "events_per_s on udp-*"},
	{"ingest.queue.high_water", "count", "lower", "events_per_s on udp-*; store.visible_lag_ms"},
	{"ingest.merge.count", "count", "lower", "events_per_s on udp-*; store.visible_lag_ms"},
	{"ingest.merge.s_total", "s", "lower", "events_per_s on udp-*; store.visible_lag_ms"},
	{"ingest.accounting_gap", "count", "lower", "failed_share: checked to be 0 on every repeat"},
	{"collector.observe.ns_per_event", "ns", "lower", "cpu_us_per_event: inserts on udp-grow, updates on udp-resight"},
	{"collector.merge.disjoint_ns_per_record", "ns", "lower", "events_per_s on udp-grow"},
	{"collector.merge.collide_ns_per_record", "ns", "lower", "events_per_s on udp-resight"},
	{"collector.bytes_per_addr", "B", "lower", "peak_rss_mb"},
	{"collector.index.probe_p99", "count", "lower", "cpu_us_per_event on udp-*"},
	{"store.visible_lag_ms", "ms", "lower", "reported only; end-to-end once snapshot staleness is removed"},
	{"ingest.checkpoint.full_s", "s", "lower", "daemon.preload_snapshot_s, setup_s on udp-resight"},
	{"ingest.checkpoint.full_bytes", "B", "lower", "disk_bytes_per_addr"},
	{"ingest.checkpoint.delta_s", "s", "lower", "snapshot_to_probe_s"},
	{"ingest.checkpoint.delta_bytes", "B", "lower", "checkpoint_bytes_per_event, disk_bytes_per_addr"},
	{"ingest.restore.full_s", "s", "lower", "restart_ready_s on udp-resight"},
	{"ingest.restore.chain_s", "s", "lower", "restart_ready_s on serve-durable"},
	{"daemon.restore_s", "s", "lower", "restart_ready_s"},
	{"pager.tier_write_s", "s", "lower", "snapshot_to_probe_s, probe_p99_us (the stall), events_per_s on serve-durable, daemon.shutdown_s"},
	{"pager.tier_bytes", "B", "lower", "checkpoint_bytes_per_event, disk_bytes_per_addr"},
	{"pager.open_s", "s", "lower", "snapshot_to_probe_s, restart_ready_s on serve-durable"},
	{"pager.get_resident_ns", "ns", "lower", "probe_p50_us (probe.hot_p50_us)"},
	{"pager.get_cold_ns", "ns", "lower", "probe_p50_us (probe.uniform_p50_us)"},
	{"pager.get_absent_ns", "ns", "lower", "probe_p50_us (probe.absent_p50_us)"},
	{"pager.filter_skip_share", "ratio", "higher", "probe.absent_p50_us"},
	{"pager.chunk_loads_per_probe", "count", "lower", "probe.uniform_p50_us"},
	{"pager.resident_bytes_max", "B", "lower", "peak_rss_mb on serve-durable; checked to stay within the budget"},
	{"probe.hot_p50_us", "us", "lower", "probe_p50_us (45 % of the key mix)"},
	{"probe.uniform_p50_us", "us", "lower", "probe_p50_us (45 % of the key mix)"},
	{"probe.absent_p50_us", "us", "lower", "probe_p50_us (10 % of the key mix)"},
	{"probe.late_p50_us", "us", "lower", "validity of probe_p50_us: how late the generator itself ran"},
	{"probe.late_p99_us", "us", "lower", "validity of probe_p99_us"},
	{"http.probe_overhead_us", "us", "lower", "probe_p50_us (HTTP and the scheduler dominate it today)"},
	{"http.snapshot_post_s", "s", "lower", "snapshot_to_probe_s"},
	{"http.stats_ms", "ms", "lower", "operator polling cost; not in any timed interval"},
	{"daemon.preload_snapshot_s", "s", "lower", "operator deploy time (first full checkpoint and tier)"},
	{"daemon.peak_rss_mb", "MB", "lower", "what the box must have on serve-durable; peak_rss_mb is its per-cycle median"},
	{"daemon.shutdown_s", "s", "lower", "operator deploy time; pager.tier_write_s should explain it"},
	{"daemon.restart_probe_s", "s", "lower", "operator deploy time: exec to first found:true"},
	{"daemon.cores_busy", "count", "higher", "events_per_s on udp-* (a partitioned write path should keep both cores busy)"},
	{"host.steal_share", "ratio", "lower", "validity of every timing: the median share of a repeat's busy CPU ticks the hypervisor withheld"},
	{"host.repeats_dropped", "count", "lower", "validity of every timing: repeats (cycles) left out because the hypervisor withheld more than 3 % of their CPU"},
	{"host.calm_wait_s", "s", "lower", "validity of every timing: how long the run waited for the hypervisor to stop withholding CPU before it set up and measured"},
	{"simnet.build_s", "s", "lower", "study_wall_s"},
	{"simnet.generate_ns_per_query", "ns", "lower", "study_wall_s"},
	{"study.collect_s", "s", "lower", "study_wall_s, study_cpu_s"},
	{"study.active_s", "s", "lower", "study_wall_s, study_cpu_s"},
	{"study.report_s", "s", "lower", "study_wall_s, study_cpu_s"},
	{"study.report_variants", "count", "lower", "correctness of study-batch: 1 when the repeats' reports are byte-identical"},
	{"tracking.analyze_s", "s", "lower", "study.report_s"},
	{"scan.backscan_s", "s", "lower", "study.report_s"},
	{"report.sections_sum_s", "s", "lower", "study.report_s (sum / wall = achieved parallelism)"},
	{"report.section_max_s", "s", "lower", "study.report_s (the slowest section bounds it)"},
	{"fold.dispatch_count", "count", "lower", "study.report_s"},
	{"fold.dispatch_s_sum", "s", "lower", "study.report_s"},
	{"budget.unattributed_share", "ratio", "lower", "how much of the budget table to trust"},
	{"trace.overhead_share", "ratio", "lower", "how much of the budget table to trust"},
}

// perLayerContract is BENCHMARK.json's per_layer list: the surface
// metrics that are not defined on every workload, then the layers.
func perLayerContract() []layerDef {
	var out []layerDef
	for _, d := range surfaceMetrics {
		out = append(out, layerDef{d.name, d.unit, d.better, surfaceMoves[d.name]})
	}
	return append(out, layerMetrics...)
}

// summary is one metric's samples and their order statistics.
type summary struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func summarize(def metricDef, samples []float64) summary {
	q1, q3 := quartiles(samples)
	return summary{
		Unit: def.unit, Better: def.better, Bound: def.bound,
		N: len(samples), Median: median(samples), Q1: q1, Q3: q3, Samples: samples,
	}
}

// value is one scalar metric with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is what a reader needs to place the numbers: the machine,
// the toolchain, the load generator's shape, and the input's size.
type environment struct {
	GOOS          string   `json:"goos"`
	GOARCH        string   `json:"goarch"`
	CPUModel      string   `json:"cpu_model"`
	NumCPU        int      `json:"nproc"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	GoVersion     string   `json:"go_version"`
	Commit        string   `json:"commit"`
	Kernel        string   `json:"kernel"`
	RmemDefault   int      `json:"rmem_default"`
	Network       string   `json:"network"`
	LoadGenerator string   `json:"load_generator"`
	DaemonFlags   []string `json:"daemon_flags,omitempty"`
	Seed          int64    `json:"seed"`
	Scale         float64  `json:"scale"`
	Days          int      `json:"days"`
	Seconds       float64  `json:"seconds"`
	Events        int      `json:"stream_events"`
	Addrs         int      `json:"stream_unique_addrs"`
	IIDs          int      `json:"stream_unique_iids"`
	Datagrams     int      `json:"stream_datagrams"`
	WireBytes     int      `json:"stream_wire_bytes"`
	LinesPerDgram int      `json:"lines_per_datagram"`
	Repeats       int      `json:"repeats"`
}

const loadGeneratorNote = "one process, at most 2 goroutines doing I/O at once: a closed-loop UDP sender paced on the " +
	"daemon socket's rx_queue in /proc/net/udp, and (serve-durable) an open-loop 500/s prober on one keep-alive connection"

func (b *bench) environment(repeats int) environment {
	rmem, _ := rmemDefault()
	return environment{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUModel: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: b.commit(), Kernel: kernelRelease(),
		RmemDefault:   rmem,
		Network:       "loopback IPv4 (127.0.0.1); no traffic crossed a link",
		LoadGenerator: loadGeneratorNote,
		DaemonFlags:   b.daemonFlags,
		Seed:          b.cfg.seed, Scale: b.cfg.scale, Days: studyDays, Seconds: b.cfg.seconds,
		Events: len(b.grow.events), Addrs: len(b.growRef.addrs), IIDs: len(b.growRef.iids),
		Datagrams: len(b.grow.datagrams), WireBytes: b.grow.bytes, LinesPerDgram: linesPerDatagram,
		Repeats: repeats,
	}
}

// commit is the checkout's HEAD when it is a git repository, read from
// the files directly so no git binary is needed; "unknown" otherwise.
func (b *bench) commit() string {
	head, err := os.ReadFile(b.root + "/.git/HEAD")
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		sha, err := os.ReadFile(b.root + "/.git/" + ref)
		if err != nil {
			return "unknown"
		}
		h = strings.TrimSpace(string(sha))
	}
	return h
}

// result is everything one workload run produced; -out appends it to a
// JSON-lines file and -compare reads such files.
type result struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Traced    bool               `json:"traced"`
	Env       environment        `json:"environment"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	NotRun    []string           `json:"not_run,omitempty"`
	FailShare float64            `json:"failed_share"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer"`
	Budget    *budget            `json:"budget,omitempty"`
}

func newResult(b *bench, w *workloadDef, o *outcome) *result {
	r := &result{
		Workload: w.name, Why: w.why, Traced: b.cfg.trace,
		Env:       b.environment(len(o.samples["events_per_s"])),
		Attempted: max(o.attempted, 1), Failed: o.failed, Failures: o.failures, NotRun: o.notRun,
		EndToEnd: make(map[string]summary), PerLayer: make(map[string]value),
		Budget: o.budget,
	}
	r.Correct = o.failed == 0
	r.FailShare = float64(r.Failed) / float64(r.Attempted)
	for _, def := range append(append([]metricDef(nil), contractMetrics...), surfaceMetrics...) {
		if s := o.samples[def.name]; len(s) > 0 {
			r.EndToEnd[def.name] = summarize(def, s)
		}
	}
	o.layer["failed_share"] = r.FailShare
	// A per-layer figure is the scalar the run set, else the median of
	// its per-repeat samples, else 0: the metric does not apply to this
	// workload or was not measured in this mode.
	for _, def := range perLayerContract() {
		v, ok := o.layer[def.name]
		if s, surface := r.EndToEnd[def.name]; surface {
			v = s.Median
		} else if !ok {
			v = median(o.samples[def.name])
		}
		r.PerLayer[def.name] = value{v, def.unit}
	}
	return r
}

// contractLine is the one JSON object the benchmark contract asks for
// on the last line of standard output: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *result) contractLine() string {
	metrics := make(map[string]value)
	if r.Traced {
		metrics = r.PerLayer
	} else {
		for _, def := range contractMetrics {
			metrics[def.name] = value{r.EndToEnd[def.name].Median, def.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

func appendResult(path string, r *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printHuman writes every metric by name with its unit, the budget
// table of a traced run, and the verdict.
func (r *result) printHuman(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "\n== %s (seed %d, scale %g, %d days): %d events, %d addresses, %d datagrams ==\n",
		r.Workload, e.Seed, e.Scale, e.Days, e.Events, e.Addrs, e.Datagrams)
	fmt.Fprintf(w, "%s, %d CPUs, %s, kernel %s, rmem_default %d\n", e.CPUModel, e.NumCPU, e.GoVersion, e.Kernel, e.RmemDefault)
	fmt.Fprintf(w, "traffic: %s\nload generator: %s\n", e.Network, e.LoadGenerator)
	if len(e.DaemonFlags) > 0 {
		fmt.Fprintf(w, "ingestd %s\n", strings.Join(e.DaemonFlags, " "))
	}
	fmt.Fprintf(w, "\n%-28s %14s %14s %14s %4s  %s\n", "end-to-end", "median", "q1", "q3", "n", "unit")
	for _, name := range sortedKeys(r.EndToEnd) {
		s := r.EndToEnd[name]
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %14.6g %4d  %s\n", name, s.Median, s.Q1, s.Q3, s.N, s.Unit)
	}
	fmt.Fprintf(w, "%-28s %14.6g ratio (%d of %d operations)\n", "failed_share", r.FailShare, r.Failed, r.Attempted)
	fmt.Fprintf(w, "\n%-40s %14s  %-6s %s\n", "per-layer", "value", "unit", "should move")
	for _, def := range layerMetrics {
		if v := r.PerLayer[def.name]; v.Value != 0 {
			fmt.Fprintf(w, "%-40s %14.6g  %-6s %s\n", def.name, v.Value, v.Unit, def.moves)
		}
	}
	if r.Budget != nil {
		r.Budget.print(w)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	for _, c := range r.NotRun {
		fmt.Fprintf(w, "NOT RUN: %s\n", c)
	}
	fmt.Fprintf(w, "correct: %v\n", r.Correct)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
