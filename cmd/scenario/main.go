// Command scenario runs the workload matrix harness from the command
// line — the same runner CI's scenario-matrix job executes, so humans
// and automation share one matrix definition.
//
//	scenario list [-json]
//	scenario describe <profile> [-json]
//	scenario run [-json] [-full] [-profiles a,b | -all] [-seeds 1,2]
//	             [-scale 0.02] [-days 8]
//
// run executes every selected (profile, seed) cell through the real
// ingest pipeline and asserts the determinism invariant: byte-identical
// canonical corpus checksums and scenario reports per (profile, seed),
// across the straight run and the checkpoint-mid-stream → restore legs
// of durable profiles. Any divergence exits non-zero naming the cell.
// The default slice is the reduced per-PR matrix (two seeds); -full
// selects the nightly matrix (three seeds).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hitlist6/internal/workload"
	"hitlist6/internal/workload/matrix"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "list":
		return cmdList(args[1:], stdout, stderr)
	case "describe":
		return cmdDescribe(args[1:], stdout, stderr)
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "scenario: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  scenario list [-json]                     show the profile catalog
  scenario describe <profile> [-json]       show one profile in full
  scenario run [flags] [profile ...]        run the determinism matrix

run flags:
  -all            run every profile (default when none named)
  -full           the nightly matrix (3 seeds) instead of the
                  reduced per-PR slice (2 seeds)
  -json           emit the full matrix result as JSON
  -seeds LIST     comma-separated seeds (e.g. 1,2,3)
  -scale F        simnet site-scale multiplier (default 0.02)
  -days N         study window length in days (default 8)
`)
}

// profileJSON is the list/describe JSON shape.
type profileJSON struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Durable     bool   `json:"durable"`
	DropRun     bool   `json:"drop_run"`
	BatchSize   int    `json:"batch_size,omitempty"`
	QueueDepth  int    `json:"queue_depth,omitempty"`
}

func toJSON(p *workload.Profile) profileJSON {
	return profileJSON{
		Name:        p.Name,
		Description: p.Description,
		Durable:     p.Durable,
		DropRun:     p.Hints.DropRun,
		BatchSize:   p.Hints.BatchSize,
		QueueDepth:  p.Hints.QueueDepth,
	}
}

func cmdList(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *asJSON {
		out := make([]profileJSON, 0, len(workload.Profiles()))
		for _, p := range workload.Profiles() {
			out = append(out, toJSON(p))
		}
		writeJSON(stdout, out)
		return 0
	}
	for _, p := range workload.Profiles() {
		tags := ""
		if p.Durable {
			tags += " [durable]"
		}
		if p.Hints.DropRun {
			tags += " [drop-leg]"
		}
		fmt.Fprintf(stdout, "%-14s%s\n    %s\n", p.Name, tags, p.Description)
	}
	return 0
}

func cmdDescribe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("describe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "scenario describe: exactly one profile name required")
		return 2
	}
	p, ok := workload.Lookup(fs.Arg(0))
	if !ok {
		fmt.Fprintf(stderr, "scenario: unknown profile %q (see `scenario list`)\n", fs.Arg(0))
		return 1
	}
	if *asJSON {
		writeJSON(stdout, toJSON(p))
		return 0
	}
	fmt.Fprintf(stdout, "%s\n  %s\n", p.Name, p.Description)
	fmt.Fprintf(stdout, "  durable (checkpoint/restore leg): %v\n", p.Durable)
	fmt.Fprintf(stdout, "  load-shedding leg:                %v\n", p.Hints.DropRun)
	if p.Hints.BatchSize != 0 || p.Hints.QueueDepth != 0 {
		fmt.Fprintf(stdout, "  pipeline hints: batch=%d queue-depth=%d\n", p.Hints.BatchSize, p.Hints.QueueDepth)
	}
	return 0
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the matrix result as JSON")
	all := fs.Bool("all", false, "run every profile")
	full := fs.Bool("full", false, "nightly matrix instead of the reduced slice")
	seedsFlag := fs.String("seeds", "", "comma-separated seeds")
	scale := fs.Float64("scale", 0, "simnet site-scale multiplier")
	days := fs.Int("days", 0, "study window length in days")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := matrix.Reduced()
	if *full {
		opts = matrix.Default()
	}
	switch {
	case fs.NArg() > 0 && *all:
		fmt.Fprintln(stderr, "scenario run: -all and explicit profile names are mutually exclusive")
		return 2
	case fs.NArg() > 0:
		opts.Profiles = fs.Args()
	}
	var err error
	if *seedsFlag != "" {
		if opts.Seeds, err = parseInt64s(*seedsFlag); err != nil {
			fmt.Fprintln(stderr, "scenario run: -seeds:", err)
			return 2
		}
	}
	if *scale != 0 {
		opts.Size.Scale = *scale
	}
	if *days != 0 {
		opts.Size.Days = *days
	}

	res, err := matrix.Run(opts)
	if err != nil {
		fmt.Fprintln(stderr, "scenario run: FAIL:", err)
		return 1
	}
	if *asJSON {
		writeJSON(stdout, res)
		return 0
	}
	fmt.Fprintf(stdout, "matrix: %d cells over %d scenarios (scale %g, %d days)\n\n",
		res.Cells, len(res.Scenarios), res.Size.Scale, res.Size.Days)
	fmt.Fprintf(stdout, "%-14s %8s %8s %12s %8s %9s %9s %8s %9s\n",
		"scenario", "cells", "events", "events/sec", "addrs", "B/addr", "probe_p99", "drops", "outages")
	for _, sc := range res.Scenarios {
		h := sc.Headline
		fmt.Fprintf(stdout, "%-14s %8d %8d %12.0f %8d %9.1f %9d %8d %9d\n",
			sc.Profile, len(sc.Cells), h.Events, h.EventsPerSec, h.Addrs,
			h.BytesPerAddr, h.ProbeP99, h.Dropped, h.Detected)
	}
	fmt.Fprintln(stdout, "\nPASS: all cells byte-identical per (profile, seed)")
	return 0
}

func parseInt64s(s string) ([]int64, error) {
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encoding in-memory structs of primitives cannot fail.
	_ = enc.Encode(v)
}
