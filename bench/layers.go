package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// layersOutput is what bench/layers prints.
type layersOutput struct {
	Metrics         map[string]float64 `json:"metrics"`
	Spans           []span             `json:"spans"`
	StudyExposition string             `json:"study_exposition"`
	CheckpointError string             `json:"checkpoint_error"`
}

// runLayers builds bench/layers and runs it on the bytes the black-box
// run sent: the whole layer replay, or with verifyOnly just the check
// of the checkpoint the workload's last daemon left behind.
//
// bench/layers calls internal functions a later change may remove. If
// it no longer builds, runLayers says so on standard error and returns
// nil: the caller reports the black-box figures alone and lists what
// was not run.
func (b *bench) runLayers(ctx context.Context, w *workloadDef, verifyOnly bool) (*layersOutput, error) {
	if err := b.goBuild(ctx, filepath.Join(b.root, "bench"), "./layers"); err != nil {
		fmt.Fprintf(os.Stderr, "bench: bench/layers unavailable: %v\n", err)
		return nil, nil
	}
	input, preload := b.grow, (*wire)(nil)
	if w.name == "udp-resight" {
		input, preload = b.again, b.grow
	}
	dir := filepath.Join(b.work, "layers")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := []string{
		"-dir", dir, "-seed", strconv.FormatInt(b.cfg.seed, 10),
		"-scale", strconv.FormatFloat(b.cfg.scale, 'g', -1, 64), "-days", strconv.Itoa(studyDays),
	}
	for flagName, wr := range map[string]*wire{"-stream": input, "-preload": preload} {
		if wr == nil {
			continue
		}
		path := filepath.Join(dir, strings.TrimPrefix(flagName, "-")+".txt")
		if err := os.WriteFile(path, bytes.Join(wr.datagrams, nil), 0o644); err != nil {
			return nil, err
		}
		args = append(args, flagName, path)
	}
	if b.final.path != "" {
		args = append(args, "-verify", b.final.path, "-verify.events", strconv.Itoa(b.final.events))
		if b.final.chain {
			args = append(args, "-verify.chain")
		}
	}
	if verifyOnly {
		args = append(args, "-verify.only")
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, filepath.Join(b.buildDir, "bin", "layers"), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	root, end := b.tr.begin(-1, 0, "layers.replay")
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench/layers: %w: %s", err, stderr.String())
	}
	end(int64(len(input.events)))
	var out layersOutput
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("bench/layers output: %w", err)
	}
	b.tr.adopt(-1, root, out.Spans)
	return &out, nil
}

// checkFinal counts the check of the last daemon's checkpoint: restored
// in-process (ingest.RestoreFile / RestoreChainFiles), its canonical
// Checksum() must equal that of a serial collector fed the events the
// daemon was sent. Run on every run of a workload that leaves a
// checkpoint, traced or not; listed as not run when bench/layers is
// unavailable.
func (b *bench) checkFinal(o *outcome, out *layersOutput) {
	if b.final.path == "" {
		return
	}
	if out == nil {
		o.notRun = append(o.notRun, "Checksum() of the daemon's final checkpoint against a serial collector (bench/layers does not build)")
		return
	}
	o.attempted++
	if out.CheckpointError != "" {
		o.fail(1, "final checkpoint: %s", out.CheckpointError)
	}
}

// verifyFinal is checkFinal for an untraced run.
func (b *bench) verifyFinal(ctx context.Context, w *workloadDef, o *outcome) error {
	if b.final.path == "" {
		return nil
	}
	out, err := b.runLayers(ctx, w, true)
	if err != nil {
		return err
	}
	b.checkFinal(o, out)
	return nil
}

// replayLayers is the in-process half of a traced run: it folds the
// figures and spans bench/layers returns into the outcome and draws up
// the workload's budget table. Without bench/layers the in-process
// figures read 0.
func (b *bench) replayLayers(ctx context.Context, w *workloadDef, o *outcome) error {
	// The replay's figures are set against the black-box run's in the
	// budget table, so it too waits for a calm host.
	if err := b.awaitCalm(ctx); err != nil {
		return err
	}
	o.layer["host.calm_wait_s"] = b.calmWaited.Seconds()
	out, err := b.runLayers(ctx, w, false)
	if err != nil {
		return err
	}
	b.checkFinal(o, out)
	if out == nil {
		if w.name == "study-batch" {
			o.notRun = append(o.notRun, "v6study's report against the in-process Study.Report() (bench/layers does not build)")
		}
		b.finishTrace(w, o, nil)
		return nil
	}
	for name, v := range out.Metrics {
		o.layer[name] = v
	}

	// The study's own registry: report sections and fold dispatches.
	reg, err := parseExposition(strings.NewReader(out.StudyExposition))
	if err != nil {
		return err
	}
	o.layer["report.sections_sum_s"] = sumSeries(reg, "report_section_seconds_sum")
	o.layer["report.section_max_s"] = maxSeries(reg, "report_section_seconds_sum")
	o.layer["tracking.analyze_s"] = reg[`report_section_seconds_sum{section="input:tracking"}`]
	o.layer["scan.backscan_s"] = reg[`report_section_seconds_sum{section="input:backscan"}`]
	o.layer["fold.dispatch_count"] = reg["fold_dispatch_seconds_count"]
	o.layer["fold.dispatch_s_sum"] = reg["fold_dispatch_seconds_sum"]
	if w.name == "study-batch" {
		inProcess, err := os.ReadFile(filepath.Join(b.work, "layers", "report.txt"))
		if err != nil {
			return err
		}
		o.attempted++
		if stable := stableReport(inProcess); !bytes.Equal(stable, b.report) {
			o.fail(1, "in-process Study.Report() differs from v6study's at %s", firstDifference(stable, b.report))
		}
	}
	b.finishTrace(w, o, out)
	return nil
}

// finishTrace derives what needs both halves of a traced run: the
// workload's budget table, HTTP's share of a probe, and the tracing
// overhead. out is nil when the layer replay was unavailable.
func (b *bench) finishTrace(w *workloadDef, o *outcome, out *layersOutput) {
	// A workload with no traced repeats (study-batch: there is nothing to
	// scrape) has no tracing overhead to report.
	if traced := median(o.samples["traced.events_per_s"]); traced != 0 {
		o.layer["trace.overhead_share"] = median(o.samples["untraced.events_per_s"])/traced - 1
	}
	if out == nil {
		return
	}
	L := o.layer
	switch w.name {
	case "udp-grow", "udp-resight":
		// Daemon CPU per event: the parser and the pipeline are replayed
		// in-process; what remains is the socket read, the kernel's UDP
		// receive path, the HTTP surface and the runtime.
		parse := L["ingest.parse.cpu_ns_per_event"] / 1e3
		pipe := L["ingest.pipeline.cpu_ns_per_event"] / 1e3
		o.budget = newBudget("cpu_us_per_event", "us", median(o.samples["cpu_us_per_event"]),
			budgetRow{Layer: "ingest.parse", Value: parse},
			budgetRow{Layer: "ingest.pipeline", Value: pipe},
			budgetRow{Layer: "collector.observe", Value: L["collector.observe.ns_per_event"] / 1e3, Detail: true},
			budgetRow{Layer: "ingest.stage.categories", Value: L["inproc.stage.categories.ns_per_event"] / 1e3, Detail: true},
			budgetRow{Layer: "ingest.stage.cardinality", Value: L["inproc.stage.cardinality.ns_per_event"] / 1e3, Detail: true},
			budgetRow{Layer: "ingest.fanout_overhead (route, queue, merge)", Value: L["ingest.fanout_overhead_ns"] / 1e3, Detail: true},
		)
	case "serve-durable":
		// POST /snapshot until the new address answers: the delta, the
		// tier rewrite, the tier reopen; the rest is HTTP, the quiesce,
		// and the probe.
		L["http.probe_overhead_us"] = median(o.samples["probe_p50_us"]) -
			(0.45*L["pager.get_resident_ns"]+0.45*L["pager.get_cold_ns"]+0.10*L["pager.get_absent_ns"])/1e3
		o.budget = newBudget("snapshot_to_probe_s", "s", median(o.samples["snapshot_to_probe_s"]),
			budgetRow{Layer: "ingest.checkpoint.delta", Value: L["ingest.checkpoint.delta_s"]},
			budgetRow{Layer: "pager.tier_write", Value: L["pager.tier_write_s"]},
			budgetRow{Layer: "pager.open", Value: L["pager.open_s"]},
		)
	case "study-batch":
		o.budget = newBudget("study_wall_s", "s", median(o.samples["study_wall_s"]),
			budgetRow{Layer: "simnet.build", Value: L["simnet.build_s"]},
			budgetRow{Layer: "study.collect", Value: L["study.collect_s"]},
			budgetRow{Layer: "study.active", Value: L["study.active_s"]},
			budgetRow{Layer: "study.report", Value: L["study.report_s"]},
			budgetRow{Layer: "tracking.analyze", Value: L["tracking.analyze_s"], Detail: true},
			budgetRow{Layer: "scan.backscan", Value: L["scan.backscan_s"], Detail: true},
		)
	}
	L["budget.unattributed_share"] = o.budget.UnattributedShare
}
