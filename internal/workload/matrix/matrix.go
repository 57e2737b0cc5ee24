// Package matrix executes workload scenarios through the real ingest
// pipeline across the determinism axes — seeds, and for durable
// profiles a checkpoint-mid-stream → restore split beside the straight
// run — and asserts the repo's standing invariant cell by cell: every
// cell of one (profile, seed) must produce the byte-identical canonical
// corpus checksum and the byte-identical scenario report.
//
// Alongside the assertions it measures the headline numbers the bench
// trajectory tracks per scenario (events/sec, B/addr, probe-run
// percentiles, drop counts). Those come from wall clocks and physical
// table layout, so they are reported, never asserted.
package matrix

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/analysis"
	"hitlist6/internal/asdb"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/outage"
	"hitlist6/internal/workload"
)

// Options selects the matrix slice to run. Zero-value fields take the
// full-matrix defaults (all profiles, seeds 1–3, workload.SizeSmall).
type Options struct {
	Profiles []string
	Seeds    []int64
	Size     workload.Size
	// SkipDurable disables the checkpoint/restore leg durable profiles
	// otherwise get.
	SkipDurable bool
	// SkipDrop disables the load-shedding leg drop-hinted profiles
	// otherwise get.
	SkipDrop bool
}

// Default returns the full matrix the nightly CI trigger and local
// `cmd/scenario run -all` execute.
func Default() Options {
	return Options{
		Profiles: workload.Names(),
		Seeds:    []int64{1, 2, 3},
		Size:     workload.SizeSmall,
	}
}

// Reduced returns the per-PR CI slice: every profile, two seeds.
func Reduced() Options {
	o := Default()
	o.Seeds = []int64{1, 2}
	return o
}

func (o *Options) fillDefaults() {
	d := Default()
	if len(o.Profiles) == 0 {
		o.Profiles = d.Profiles
	}
	if len(o.Seeds) == 0 {
		o.Seeds = d.Seeds
	}
	if o.Size == (workload.Size{}) {
		o.Size = d.Size
	}
}

// Cell is one executed matrix cell.
type Cell struct {
	Profile string `json:"profile"`
	Seed    int64  `json:"seed"`
	// Mode is "stream" (straight run), "restore" (checkpoint-mid-stream
	// → restore → finish), or "drop" (DropOnFull load-shedding; excluded
	// from the determinism assertion by design).
	Mode string `json:"mode"`
	// Checksum is the canonical corpus checksum; ReportSum the SHA-256
	// of the rendered scenario report. Both must match across every
	// stream/restore cell of one (profile, seed).
	Checksum  string `json:"checksum"`
	ReportSum string `json:"report_sum"`

	Events       int     `json:"events"`
	Addrs        int     `json:"addrs"`
	EventsPerSec float64 `json:"events_per_sec"`
	BytesPerAddr float64 `json:"bytes_per_addr"`
	ProbeP99     int     `json:"probe_p99"`
	ProbeMax     int     `json:"probe_max"`
	Enqueued     uint64  `json:"enqueued"`
	Dropped      uint64  `json:"dropped,omitempty"`
	Detected     int     `json:"detected_outages"`
}

// Scenario is one profile's matrix outcome.
type Scenario struct {
	Profile     string   `json:"profile"`
	Description string   `json:"description"`
	Seeds       []int64  `json:"seeds"`
	Cells       []Cell   `json:"cells"`
	Headline    Headline `json:"headline"`
	// Report is the asserted scenario report of the first seed, for
	// humans diffing what a checksum mismatch means.
	Report string `json:"report,omitempty"`
}

// Headline is the per-scenario block the bench trajectory tracks. The
// throughput/probe numbers come from the designated cell (first seed,
// stream mode); drops from that seed's drop cell.
type Headline struct {
	Events       int     `json:"events"`
	Addrs        int     `json:"addrs"`
	EventsPerSec float64 `json:"events_per_sec"`
	BytesPerAddr float64 `json:"bytes_per_addr"`
	ProbeP99     int     `json:"probe_p99"`
	ProbeMax     int     `json:"probe_max"`
	Dropped      uint64  `json:"dropped"`
	Detected     int     `json:"detected_outages"`
}

// Result is one matrix run.
type Result struct {
	Size      workload.Size `json:"size"`
	Scenarios []*Scenario   `json:"scenarios"`
	Cells     int           `json:"cells"`
}

// Run executes the selected matrix slice and asserts the determinism
// invariant across every cell. The first violated invariant aborts the
// run with an error naming the divergent cell.
func Run(opts Options) (*Result, error) {
	opts.fillDefaults()
	res := &Result{Size: opts.Size}
	for _, name := range opts.Profiles {
		p, ok := workload.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("matrix: unknown profile %q", name)
		}
		sc, err := runScenario(p, opts)
		if err != nil {
			return nil, err
		}
		res.Scenarios = append(res.Scenarios, sc)
		res.Cells += len(sc.Cells)
	}
	return res, nil
}

// runScenario runs every cell of one profile and cross-checks the
// (profile, seed) equivalence classes.
func runScenario(p *workload.Profile, opts Options) (*Scenario, error) {
	sc := &Scenario{Profile: p.Name, Description: p.Description, Seeds: opts.Seeds}
	// Seed-distinctness guard: two seeds collapsing to one corpus means
	// a generator is ignoring its seed.
	bySeed := make(map[int64]string)

	for _, seed := range opts.Seeds {
		st, err := p.Stream(seed, opts.Size)
		if err != nil {
			return nil, fmt.Errorf("matrix: %s: %w", p.Name, err)
		}
		var want *cellOutcome
		record := func(c Cell, out *cellOutcome) {
			sc.Cells = append(sc.Cells, c)
			if c.Mode == "drop" {
				return
			}
			if want == nil {
				want = out
				bySeed[seed] = c.Checksum
				if seed == opts.Seeds[0] {
					sc.Report = string(out.report)
				}
			}
		}
		check := func(c Cell, out *cellOutcome) error {
			if want == nil || c.Mode == "drop" {
				return nil
			}
			if c.Checksum != want.cell.Checksum {
				return fmt.Errorf("matrix: %s seed %d: cell %s diverged from %s: corpus checksum %s != %s",
					p.Name, seed, cellID(c), cellID(want.cell), c.Checksum, want.cell.Checksum)
			}
			if !bytes.Equal(out.report, want.report) {
				return fmt.Errorf("matrix: %s seed %d: cell %s diverged from %s: scenario reports differ:\n--- want\n%s\n--- got\n%s",
					p.Name, seed, cellID(c), cellID(want.cell), want.report, out.report)
			}
			return nil
		}

		legs := []string{"stream"}
		if p.Durable && !opts.SkipDurable {
			legs = append(legs, "restore")
		}
		if p.Tiered && !opts.SkipDurable {
			legs = append(legs, "delta-restore")
		}
		if p.Hints.DropRun && !opts.SkipDrop {
			legs = append(legs, "drop")
		}
		for _, mode := range legs {
			out, err := runCell(p, st, mode)
			if err != nil {
				return nil, err
			}
			if err := check(out.cell, out); err != nil {
				return nil, err
			}
			record(out.cell, out)
		}
		if p.Tiered && want != nil {
			cells, err := tierLegs(st, want)
			if err != nil {
				return nil, err
			}
			sc.Cells = append(sc.Cells, cells...)
		}
	}

	seen := make(map[string]int64)
	seeds := make([]int64, 0, len(bySeed))
	for seed := range bySeed {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, seed := range seeds {
		sum := bySeed[seed]
		if other, dup := seen[sum]; dup {
			return nil, fmt.Errorf("matrix: %s: seeds %d and %d produced the identical corpus %s — generator is ignoring its seed",
				p.Name, other, seed, sum)
		}
		seen[sum] = seed
	}

	sc.Headline = headline(sc, opts.Seeds[0])
	return sc, nil
}

// headline picks the designated cell's numbers: first seed, stream mode
// — plus the drop cell's shed count.
func headline(sc *Scenario, firstSeed int64) Headline {
	var h Headline
	for _, c := range sc.Cells {
		if c.Seed == firstSeed && c.Mode == "stream" {
			h.Events = c.Events
			h.Addrs = c.Addrs
			h.EventsPerSec = c.EventsPerSec
			h.BytesPerAddr = c.BytesPerAddr
			h.ProbeP99 = c.ProbeP99
			h.ProbeMax = c.ProbeMax
			h.Detected = c.Detected
		}
		if c.Seed == firstSeed && c.Mode == "drop" {
			h.Dropped = c.Dropped
		}
	}
	return h
}

func cellID(c Cell) string {
	return fmt.Sprintf("%s/seed=%d/%s", c.Profile, c.Seed, c.Mode)
}

// cellOutcome carries one cell's full result between assertion and
// recording. col is the cell's final corpus, which the tier legs re-read
// through internal/pager.
type cellOutcome struct {
	cell   Cell
	report []byte
	col    *collector.Collector
}

// cellConfig builds the pipeline config for one cell. Its one stage is
// the outage series, the part of a scenario report that needs the
// events' times; synthetic streams without a routing DB have none.
func cellConfig(p *workload.Profile, st *workload.Stream, drop bool) ingest.Config {
	cfg := ingest.Config{
		BatchSize:  p.Hints.BatchSize,
		QueueDepth: p.Hints.QueueDepth,
		DropOnFull: drop,
	}
	if st.ASDB != nil {
		cfg.Stages = []ingest.StageFactory{ingest.OutageSeries(st.ASDB, st.Origin, st.End, st.Bin)}
	}
	return cfg
}

// carryOutage installs first's outage stage as second's: the stage half
// of a restore leg. first is closed, so the stage is complete, and
// second has processed nothing yet, so the install loses nothing.
func carryOutage(first, second *ingest.Pipeline) error {
	stg := first.Stage("outage")
	if stg == nil {
		return nil
	}
	return second.SeedStage("outage", stg)
}

// runCell executes one matrix cell through the real pipeline.
//
// All modes feed through Pipeline.Ingest on the calling goroutine, a
// single producer (the multi-producer legs live in the ingest package's
// own equivalence suite).
func runCell(p *workload.Profile, st *workload.Stream, mode string) (*cellOutcome, error) {
	cell := Cell{Profile: p.Name, Seed: st.Seed, Mode: mode, Events: len(st.Events)}
	start := time.Now()

	var final *ingest.Pipeline
	switch mode {
	case "stream", "drop":
		pl, err := ingest.New(cellConfig(p, st, mode == "drop"))
		if err != nil {
			return nil, fmt.Errorf("matrix: %s: %w", cellID(cell), err)
		}
		pl.Ingest(st.Events)
		final = pl
	case "restore":
		pl, err := restoreCell(p, st)
		if err != nil {
			return nil, err
		}
		final = pl
	case "delta-restore":
		pl, err := deltaRestoreCell(p, st)
		if err != nil {
			return nil, err
		}
		final = pl
	default:
		return nil, fmt.Errorf("matrix: unknown cell mode %q", mode)
	}

	col := final.Close()
	elapsed := time.Since(start)
	m := final.Metrics()

	if mode == "drop" {
		// The accounting invariant load shedding must keep: every fed
		// event was either admitted or counted shed, and everything
		// admitted was folded. Which side of the line an event lands on is
		// timing-dependent — the counts' consistency is not.
		if m.Enqueued+m.Dropped != uint64(len(st.Events)) {
			return nil, fmt.Errorf("matrix: %s: enqueued %d + dropped %d != fed %d",
				cellID(cell), m.Enqueued, m.Dropped, len(st.Events))
		}
		if m.Processed != m.Enqueued {
			return nil, fmt.Errorf("matrix: %s: processed %d != enqueued %d",
				cellID(cell), m.Processed, m.Enqueued)
		}
	}

	sum := col.Checksum()
	cell.Checksum = hex.EncodeToString(sum[:])
	cell.Addrs = col.NumAddrs()
	if sec := elapsed.Seconds(); sec > 0 {
		cell.EventsPerSec = float64(len(st.Events)) / sec
	}
	if cell.Addrs > 0 {
		cell.BytesPerAddr = float64(col.MemoryFootprint()) / float64(cell.Addrs)
	}
	ps := col.AddrIndexStats()
	cell.ProbeP99, cell.ProbeMax = ps.P99Probe, ps.MaxProbe
	cell.Enqueued, cell.Dropped = m.Enqueued, m.Dropped

	report := renderReport(st, col, final, &cell)
	rs := sha256.Sum256(report)
	cell.ReportSum = hex.EncodeToString(rs[:])
	return &cellOutcome{cell: cell, report: report, col: col}, nil
}

// restoreCell is the durable leg: feed half the stream, checkpoint
// through the real Quiesce + checkpoint protocol, restore the checkpoint
// into a fresh pipeline (corpus via Config.Seed, the outage series via
// SeedStage), feed the rest, and hand the second pipeline back for
// closing. Its result must be byte-identical to the straight run's.
func restoreCell(p *workload.Profile, st *workload.Stream) (*ingest.Pipeline, error) {
	cell := Cell{Profile: p.Name, Seed: st.Seed, Mode: "restore"}
	half := len(st.Events) / 2

	first, err := ingest.New(cellConfig(p, st, false))
	if err != nil {
		return nil, fmt.Errorf("matrix: %s: %w", cellID(cell), err)
	}
	first.Ingest(st.Events[:half])
	var ckpt bytes.Buffer
	bw := bufio.NewWriter(&ckpt)
	if err := first.Checkpoint(bw); err != nil {
		return nil, fmt.Errorf("matrix: %s: checkpoint: %w", cellID(cell), err)
	}
	// Close stops the first pipeline's worker; no events flowed after the
	// checkpoint, so its outage stage holds exactly the checkpoint-time
	// state. The corpus it returns
	// is discarded — the restore leg's corpus comes from the snapshot
	// bytes, the protocol a real crash recovery uses.
	first.Close()

	restored, err := collector.OpenSnapshot(bufio.NewReader(&ckpt))
	if err != nil {
		return nil, fmt.Errorf("matrix: %s: restore: %w", cellID(cell), err)
	}
	cfg := cellConfig(p, st, false)
	cfg.Seed = restored
	second, err := ingest.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("matrix: %s: %w", cellID(cell), err)
	}
	if err := carryOutage(first, second); err != nil {
		return nil, fmt.Errorf("matrix: %s: %w", cellID(cell), err)
	}
	second.Ingest(st.Events[half:])
	return second, nil
}

// renderReport writes the deterministic scenario report: everything in
// it is a pure function of the stream, so every cell of one (profile,
// seed) must render the identical bytes. Wall-clock numbers and layout
// stats stay out by construction.
func renderReport(st *workload.Stream, col *collector.Collector, pl *ingest.Pipeline, cell *Cell) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "scenario %s seed %d\n", st.Profile, st.Seed)
	fmt.Fprintf(&b, "window %s .. %s bin %s\n",
		st.Origin.UTC().Format(time.RFC3339), st.End.UTC().Format(time.RFC3339), st.Bin)
	fmt.Fprintf(&b, "events %d\n", len(st.Events))
	fmt.Fprintf(&b, "addrs %d iids %d observations %d\n",
		col.NumAddrs(), col.IIDTable().NumIIDs(), col.TotalObservations())
	fmt.Fprintf(&b, "corpus %s\n", cell.Checksum)

	// Sightings per structural category and per origin AS are Σ rec.Count
	// over the closed corpus; the sketch is of its address set.
	var cats [addr.NumCategories]uint64
	asns := make(map[asdb.ASN]uint64)
	col.Addrs(func(a addr.Addr, r collector.AddrRecord) bool {
		cats[a.IID().StructuralCategory()] += uint64(r.Count)
		if st.ASDB != nil {
			asn, _ := st.ASDB.OriginASN(a)
			asns[asn] += uint64(r.Count)
		}
		return true
	})
	b.WriteString("categories")
	for i, n := range cats {
		fmt.Fprintf(&b, " %d=%d", i, n)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "cardinality %.1f\n", analysis.AddressSketch(nil, col, 0, col.NumAddrs(), 1).Estimate())
	if st.ASDB != nil {
		keys := make([]asdb.ASN, 0, len(asns))
		for asn := range asns {
			keys = append(keys, asn)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		b.WriteString("asns")
		for _, asn := range keys {
			fmt.Fprintf(&b, " AS%d=%d", asn, asns[asn])
		}
		b.WriteByte('\n')
	}
	if os, ok := pl.Stage("outage").(*ingest.OutageSeriesStage); ok && os != nil {
		series := os.Series()
		fmt.Fprintf(&b, "outage bins=%d complete=%d\n", series.Bins, series.Complete)
		keys := make([]asdb.ASN, 0, len(series.ByAS))
		for asn := range series.ByAS {
			keys = append(keys, asn)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, asn := range keys {
			total := 0
			for _, n := range series.ByAS[asn] {
				total += n
			}
			fmt.Fprintf(&b, "outage AS%d total=%d\n", asn, total)
		}
		events := outage.Detect(series, outage.DefaultConfig())
		cell.Detected = len(events)
		fmt.Fprintf(&b, "detected %d\n", len(events))
		for _, ev := range events {
			fmt.Fprintf(&b, "  %s\n", ev)
		}
	}
	return b.Bytes()
}
