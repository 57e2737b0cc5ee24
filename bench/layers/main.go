// Command layers is the in-process half of a traced benchmark run: it
// replays the input the black-box run sent — the same encoded event
// lines — through each layer's public functions, with a span (wall and
// process CPU time, item count) around every call, and prints the
// per-layer figures and the spans as one JSON object.
//
// It is a program of its own, and the bench treats a failure to build
// it as "no in-process figures this run", so that a change which
// removes one of the functions called here does not take the
// end-to-end benchmark down with it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"hitlist6"
	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/pager"
	"hitlist6/internal/simnet"
	"hitlist6/internal/telemetry"
)

// span mirrors the bench's span record; the bench adopts these under
// its own trace.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Count   int64  `json:"count"`
	CPUNS   int64  `json:"cpu_ns"`
}

// output is what the program prints.
type output struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
	// StudyExposition is the study's telemetry registry in Prometheus
	// text form. The report itself is written to report.txt under -dir.
	StudyExposition string `json:"study_exposition"`
	// CheckpointError says how the daemon's checkpoint (-verify) differs
	// from the serial replay; empty when it matches.
	CheckpointError string `json:"checkpoint_error"`
}

type recorder struct {
	epoch time.Time
	out   output
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs fn inside a span and returns its wall and CPU time.
func (r *recorder) timed(name string, count int, fn func()) (wall, cpu time.Duration) {
	runtime.GC() // each layer starts from a collected heap, not the previous layer's garbage
	start, cpu0 := time.Since(r.epoch), cpuNow()
	fn()
	end, cpu1 := time.Since(r.epoch), cpuNow()
	r.out.Spans = append(r.out.Spans, span{
		ID: len(r.out.Spans) + 1, Name: name,
		StartNS: start.Nanoseconds(), EndNS: end.Nanoseconds(),
		Count: int64(count), CPUNS: (cpu1 - cpu0).Nanoseconds(),
	})
	return end - start, cpu1 - cpu0
}

// replays is how many times the layers that make up a budget table are
// replayed. The end-to-end figure a budget is set against is the median
// of a run's repeats, so the layer figure is the median replay.
const replays = 3

// replay is the wall and CPU time of one timed call.
type replay struct{ wall, cpu time.Duration }

// medianReplay returns the replay with the middle wall time.
func medianReplay(rs []replay) replay {
	sort.Slice(rs, func(i, j int) bool { return rs[i].wall < rs[j].wall })
	return rs[len(rs)/2]
}

// replayed runs prep (untimed, may be nil) then fn (timed) replays
// times and returns the median replay's times.
func (r *recorder) replayed(name string, count int, prep, fn func()) (wall, cpu time.Duration) {
	var rs []replay
	for i := 0; i < replays; i++ {
		if prep != nil {
			prep()
		}
		w, c := r.timed(name, count, fn)
		rs = append(rs, replay{w, c})
	}
	m := medianReplay(rs)
	return m.wall, m.cpu
}

func (r *recorder) set(name string, v float64) { r.out.Metrics[name] = v }

func perItemNS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func main() {
	var (
		streamPath  = flag.String("stream", "", "file of event lines: the input to replay")
		preloadPath = flag.String("preload", "", "file of event lines already in the corpus before the input (re-sighting runs)")
		dir         = flag.String("dir", "", "scratch directory for checkpoint and tier files")
		seed        = flag.Int64("seed", 1, "simnet seed of the stream, for the simnet and study layers")
		scale       = flag.Float64("scale", 0.5, "simnet scale of the stream")
		days        = flag.Int("days", 218, "study window")
		verify      = flag.String("verify", "", "checkpoint the daemon left behind: its corpus must equal a serial replay of -preload plus the first -verify.events events of -stream")
		verifyChain = flag.Bool("verify.chain", false, "-verify names the base of a delta chain, not a plain checkpoint")
		verifyN     = flag.Int("verify.events", 0, "how many events of -stream the daemon was sent before it wrote -verify")
		verifyOnly  = flag.Bool("verify.only", false, "check -verify and stop: no layer is replayed (untraced runs)")
	)
	flag.Parse()
	r := &recorder{epoch: time.Now(), out: output{Metrics: make(map[string]float64)}}
	err := r.run(*streamPath, *preloadPath, *dir, *seed, *scale, *days, checkpoint{*verify, *verifyChain, *verifyN, *verifyOnly})
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(r.out); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

// checkpoint names what the black-box run's daemon wrote on SIGTERM.
type checkpoint struct {
	path   string
	chain  bool
	events int
	only   bool // nothing but the check is wanted
}

// verify restores the daemon's checkpoint and holds its canonical
// checksum to that of a serial collector fed the same events.
func (ck checkpoint) verify(preload, events []ingest.Event) error {
	var got *collector.Collector
	var err error
	if ck.chain {
		got, err = ingest.RestoreChainFiles(ck.path)
	} else {
		got, err = ingest.RestoreFile(ck.path)
	}
	if err != nil {
		return fmt.Errorf("restore %s: %w", ck.path, err)
	}
	want := collector.New()
	observeAll(want, preload)
	observeAll(want, events[:ck.events])
	if got.Checksum() != want.Checksum() {
		return fmt.Errorf("%s restores to %d addresses, %d observations with checksum %x; the serial replay of what was sent has %d, %d, %x",
			ck.path, got.NumAddrs(), got.TotalObservations(), got.Checksum(), want.NumAddrs(), want.TotalObservations(), want.Checksum())
	}
	return nil
}

func (r *recorder) run(streamPath, preloadPath, dir string, seed int64, scale float64, days int, ck checkpoint) error {
	lines, err := os.ReadFile(streamPath)
	if err != nil {
		return err
	}
	var events []ingest.Event
	if ck.only {
		events, err = parseLines(lines, nil)
	} else {
		events, err = r.parse(lines)
	}
	if err != nil {
		return err
	}
	var preload []ingest.Event
	if preloadPath != "" {
		pl, err := os.ReadFile(preloadPath)
		if err != nil {
			return err
		}
		if preload, err = parseLines(pl, nil); err != nil {
			return err
		}
	}
	if ck.path != "" {
		if err := ck.verify(preload, events); err != nil {
			r.out.CheckpointError = err.Error()
		}
	}
	if ck.only {
		return nil
	}
	corpus := r.observe(events, preload)
	if err := r.pipelines(events, preload); err != nil {
		return err
	}
	r.merges(events)
	if err := r.durable(events, preload, corpus, dir); err != nil {
		return err
	}
	return r.study(dir, seed, scale, days)
}

// parseLines decodes newline-framed event lines as ingestd's sources do.
func parseLines(data []byte, into []ingest.Event) ([]ingest.Event, error) {
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			nl = len(data)
		}
		ev, err := ingest.ParseEventBytes(data[:nl])
		if err != nil {
			return nil, err
		}
		into = append(into, ev)
		data = data[min(nl+1, len(data)):]
	}
	return into, nil
}

// parse times ingest.ParseEventBytes over every line of the input.
func (r *recorder) parse(lines []byte) ([]ingest.Event, error) {
	n := bytes.Count(lines, []byte("\n"))
	events := make([]ingest.Event, 0, n+1)
	var err error
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wall, cpu := r.replayed("ingest.parse", n, nil, func() { events, err = parseLines(lines, events[:0]) })
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	r.set("ingest.parse.ns_per_event", perItemNS(wall, len(events)))
	r.set("ingest.parse.cpu_ns_per_event", perItemNS(cpu, len(events)))
	r.set("ingest.parse.allocs_per_event", float64(m1.Mallocs-m0.Mallocs)/float64(replays*len(events)))
	return events, nil
}

func observeAll(c *collector.Collector, events []ingest.Event) {
	for _, ev := range events {
		c.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
	}
}

// observe times a serial collector over the input — on top of the
// preload when there is one, so a re-sighting input measures updates,
// not inserts — and returns the resulting corpus.
func (r *recorder) observe(events, preload []ingest.Event) *collector.Collector {
	var c *collector.Collector
	wall, _ := r.replayed("collector.observe", len(events),
		func() {
			c = collector.New()
			observeAll(c, preload)
		},
		func() { observeAll(c, events) })
	r.set("collector.observe.ns_per_event", perItemNS(wall, len(events)))
	r.set("collector.bytes_per_addr", float64(c.MemoryFootprint())/float64(c.NumAddrs()))
	r.set("collector.index.probe_p99", float64(c.AddrIndexStats().P99Probe))
	return c
}

// daemonStages are the stages ingestd runs with -outage.bin 0.
func daemonStages() []ingest.StageFactory {
	return []ingest.StageFactory{ingest.Categories(), ingest.Cardinality(14)}
}

// pipelines times Pipeline.Ingest+Quiesce with ingestd's stages and
// snapshot interval, at the default shard count and at one shard, and
// each stage's Process alone.
func (r *recorder) pipelines(events, preload []ingest.Event) error {
	one := func(name string, shards int) (wall, cpu time.Duration, err error) {
		var rs []replay
		for i := 0; i < replays; i++ {
			cfg := ingest.Config{Shards: shards, SnapshotInterval: 500 * time.Millisecond, Stages: daemonStages()}
			if len(preload) > 0 {
				cfg.Seed = collector.New()
				observeAll(cfg.Seed, preload)
			}
			p, err := ingest.New(cfg)
			if err != nil {
				return 0, 0, err
			}
			w, c := r.timed(name, len(events), func() {
				p.Ingest(events)
				p.Quiesce()
			})
			p.Close()
			rs = append(rs, replay{w, c})
		}
		m := medianReplay(rs)
		return m.wall, m.cpu, nil
	}
	wall, cpu, err := one("ingest.pipeline", 0)
	if err != nil {
		return err
	}
	r.set("ingest.pipeline.ns_per_event", perItemNS(wall, len(events)))
	r.set("ingest.pipeline.cpu_ns_per_event", perItemNS(cpu, len(events)))
	wall1, _, err := one("ingest.pipeline1", 1)
	if err != nil {
		return err
	}
	r.set("ingest.pipeline1.ns_per_event", perItemNS(wall1, len(events)))

	var stages time.Duration
	for _, f := range daemonStages() {
		st := f()
		w, _ := r.timed("ingest.stage."+st.Name(), len(events), func() {
			for _, ev := range events {
				st.Process(ev)
			}
		})
		r.set("inproc.stage."+st.Name()+".ns_per_event", perItemNS(w, len(events)))
		stages += w
	}
	// What the pipeline costs beyond the work it carries: route, queue,
	// snapshot and merge. From the one-shard run, whose wall time is one
	// worker's time.
	r.set("ingest.fanout_overhead_ns", perItemNS(wall1, len(events))-
		r.out.Metrics["collector.observe.ns_per_event"]-perItemNS(stages, len(events)))
	return nil
}

// merges times Store.ApplyShard in its two shapes: a shard disjoint
// from the store (hash-split halves), and a shard whose every record
// collides with the store (the same addresses again).
func (r *recorder) merges(events []ingest.Event) {
	half := [2]*collector.Collector{collector.New(), collector.New()}
	for _, ev := range events {
		half[ev.Addr.Hash64()&1].ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
	}
	st := collector.NewStore()
	st.ApplyShard(half[0])
	n := half[1].NumAddrs()
	wall, _ := r.timed("collector.merge.disjoint", n, func() { st.ApplyShard(half[1]) })
	r.set("collector.merge.disjoint_ns_per_record", perItemNS(wall, n))

	again := collector.New()
	observeAll(again, events)
	n = again.NumAddrs()
	wall, _ = r.timed("collector.merge.collide", n, func() { st.ApplyShard(again) })
	r.set("collector.merge.collide_ns_per_record", perItemNS(wall, n))
}

// durable times the persistence and pager layers the way serve-durable
// uses them: a chain base at 80 % of the input, a delta after the next
// 5 %, a plain full checkpoint, both restores, the tier write and open,
// and point lookups resident, cold and absent.
func (r *recorder) durable(events, preload []ingest.Event, corpus *collector.Collector, dir string) error {
	cfg := ingest.Config{SnapshotInterval: 500 * time.Millisecond, Stages: daemonStages()}
	if len(preload) > 0 {
		cfg.Seed = collector.New()
		observeAll(cfg.Seed, preload)
	}
	p, err := ingest.New(cfg)
	if err != nil {
		return err
	}
	defer p.Close()
	chain := filepath.Join(dir, "chain.snap")
	full := filepath.Join(dir, "full.snap")
	base, next := len(events)*80/100, len(events)*85/100
	p.Ingest(events[:base])
	p.Quiesce()
	var size int64
	wall, _ := r.timed("ingest.checkpoint.chain_base", base, func() { size, err = p.CheckpointChain(chain) })
	if err != nil {
		return err
	}
	p.Ingest(events[base:next])
	p.Quiesce()
	wall, _ = r.timed("ingest.checkpoint.delta", next-base, func() { size, err = p.CheckpointChain(chain) })
	if err != nil {
		return err
	}
	r.set("ingest.checkpoint.delta_s", wall.Seconds())
	r.set("ingest.checkpoint.delta_bytes", float64(size))
	wall, _ = r.timed("ingest.checkpoint.full", next, func() { size, err = p.CheckpointFile(full) })
	if err != nil {
		return err
	}
	r.set("ingest.checkpoint.full_s", wall.Seconds())
	r.set("ingest.checkpoint.full_bytes", float64(size))

	wall, _ = r.timed("ingest.restore.full", next, func() { _, err = ingest.RestoreFile(full) })
	if err != nil {
		return err
	}
	r.set("ingest.restore.full_s", wall.Seconds())
	wall, _ = r.timed("ingest.restore.chain", next, func() { _, err = ingest.RestoreChainFiles(chain) })
	if err != nil {
		return err
	}
	r.set("ingest.restore.chain_s", wall.Seconds())

	// The tier, written the way the daemon writes it (atomic, fsynced).
	tier := filepath.Join(dir, "corpus.tier")
	wall, _ = r.replayed("pager.tier_write", corpus.NumAddrs(), nil, func() {
		size, err = ingest.AtomicWriteFile(tier, func(w io.Writer) error { return pager.WriteTier(corpus, w) })
	})
	if err != nil {
		return err
	}
	r.set("pager.tier_write_s", wall.Seconds())
	r.set("pager.tier_bytes", float64(size))

	var warm, cold *pager.Corpus
	wall, _ = r.timed("pager.open", 1, func() { warm, err = pager.Open(tier, pager.Options{}) })
	if err != nil {
		return err
	}
	defer warm.Close()
	r.set("pager.open_s", wall.Seconds())
	if cold, err = pager.Open(tier, pager.Options{RAMBudget: 1}); err != nil { // 1 B: the one-chunk floor
		return err
	}
	defer cold.Close()

	present := corpus.AddressList()
	sort.Slice(present, func(i, j int) bool { return present[i].Hash64() < present[j].Hash64() }) // scatter across chunks
	keys := present[:min(len(present), 20000)]
	absent := make([]addr.Addr, len(keys))
	for i, a := range keys {
		absent[i] = addr.FromParts(a.Hi(), ^a.Lo())
	}
	gets := func(c *pager.Corpus, keys []addr.Addr, wantFound bool) error {
		for _, a := range keys {
			_, ok, err := c.Get(a)
			if err != nil {
				return err
			}
			if ok != wantFound {
				return fmt.Errorf("pager.Get(%s) found=%v, want %v", a, ok, wantFound)
			}
		}
		return nil
	}
	if err := gets(warm, present, true); err != nil { // load every chunk
		return err
	}
	wall, _ = r.timed("pager.get_resident", len(keys), func() { err = gets(warm, keys, true) })
	if err != nil {
		return err
	}
	r.set("pager.get_resident_ns", perItemNS(wall, len(keys)))
	wall, _ = r.timed("pager.get_cold", len(keys), func() { err = gets(cold, keys, true) })
	if err != nil {
		return err
	}
	r.set("pager.get_cold_ns", perItemNS(wall, len(keys)))
	wall, _ = r.timed("pager.get_absent", len(absent), func() { err = gets(cold, absent, false) })
	if err != nil {
		return err
	}
	r.set("pager.get_absent_ns", perItemNS(wall, len(absent)))
	return nil
}

// study times the simnet and study layers on the stream's world and
// hashes the in-process report.
func (r *recorder) study(dir string, seed int64, scale float64, days int) error {
	wcfg := simnet.DefaultConfig(seed, scale)
	wcfg.Days = days
	var world *simnet.World
	var err error
	wall, _ := r.timed("simnet.build", 1, func() { world, err = simnet.Build(wcfg) })
	if err != nil {
		return err
	}
	r.set("simnet.build_s", wall.Seconds())
	queries := 0
	wall, _ = r.timed("simnet.generate", 0, func() { world.GenerateQueries(func(simnet.Query) { queries++ }) })
	r.out.Spans[len(r.out.Spans)-1].Count = int64(queries)
	r.set("simnet.generate_ns_per_query", perItemNS(wall, queries))
	world = nil

	// The same configuration cmd/v6study builds from its flags.
	cfg := hitlist6.DefaultConfig()
	cfg.Seed, cfg.Scale, cfg.Days = seed, scale, days
	if cfg.SliceDay >= cfg.Days {
		cfg.SliceDay = cfg.Days * 2 / 3
	}
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	var st *hitlist6.Study
	r.timed("study.new", 1, func() { st, err = hitlist6.NewStudy(cfg) })
	if err != nil {
		return err
	}
	wall, _ = r.timed("study.collect", queries, func() { err = st.CollectPassive() })
	if err != nil {
		return err
	}
	r.set("study.collect_s", wall.Seconds())
	wall, _ = r.timed("study.active", 1, func() { err = st.BuildActive() })
	if err != nil {
		return err
	}
	r.set("study.active_s", wall.Seconds())
	var report string
	wall, _ = r.timed("study.report", 1, func() { report, err = st.Report() })
	if err != nil {
		return err
	}
	r.set("study.report_s", wall.Seconds())
	// v6study prints the report with Println.
	if err := os.WriteFile(filepath.Join(dir, "report.txt"), []byte(report+"\n"), 0o644); err != nil {
		return err
	}
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		return err
	}
	r.out.StudyExposition = expo.String()
	return nil
}
