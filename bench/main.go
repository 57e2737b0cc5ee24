// Command bench is the repository's benchmark: it drives the real
// ingestd and v6study binaries from outside for the end-to-end numbers
// and, in a traced run, replays the same input through each layer's
// public functions (bench/layers) for the per-layer numbers. See
// README.md in this directory for the vocabulary and the protocol.
//
// Usage (from the repository root):
//
//	sh bench/run.sh --workload udp-grow --seed 1 --seconds 10 --trace 0
//	sh bench/run.sh --workload all --out a.jsonl
//	sh bench/run.sh --compare a.jsonl b.jsonl
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// workloadDef is one workload: how to prepare it in set-up, how to run
// it, and which figure heads its budget table.
type workloadDef struct {
	name    string
	why     string
	prepare func(ctx context.Context, b *bench) error
	run     func(ctx context.Context, b *bench, o *outcome) error
}

var workloads = []*workloadDef{
	{
		name: "udp-grow",
		why:  "fresh daemon, whole stream over loopback UDP: parse, route, observe with index growth, disjoint merges; no disk, pager or report",
		run:  runUDPGrow,
	},
	{
		name:    "udp-resight",
		why:     "daemon restored from a snapshot of the stream, then the stream re-sighted: update in place, colliding merges, restore-on-start",
		prepare: prepareResight,
		run:     runUDPResight,
	},
	{
		name: "serve-durable",
		why:  "delta checkpoints and tier rewrites under a RAM budget while an open-loop prober reads: persistence, pager and HTTP; little ingest",
		run:  runServeDurable,
	},
	{
		name: "study-batch",
		why:  "v6study end to end: simnet, in-process ingest, hitlist, fold and report; no socket, text parse or disk",
		run:  runStudyBatch,
	},
}

func lookupWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// workloadCeiling bounds one workload's wall clock, set-up included, so
// a hang fails loudly. It sits under the 180 s an invocation may take.
const workloadCeiling = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: udp-grow, udp-resight, serve-durable, study-batch, or all")
		seed     = flag.Int64("seed", 1, "stream seed")
		seconds  = flag.Float64("seconds", 20, "how long the measured phase of a workload lasts")
		trace    = flag.Int("trace", 0, "1: traced run (spans, /metrics deltas, in-process layer replay) printing the per-layer metrics")
		out      = flag.String("out", "", "append the full result (environment, samples, per-layer, budget) to this JSON-lines file")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	var todo []*workloadDef
	if *workload == "all" {
		todo = workloads
	} else if w := lookupWorkload(*workload); w != nil {
		todo = []*workloadDef{w}
	} else {
		fatal(fmt.Errorf("unknown -workload %q", *workload))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("-seconds must be positive, -trace 0 or 1"))
	}

	// SIGINT/SIGTERM cancel the context; every child is started with it
	// and is killed and reaped when it is cancelled.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	ok := true
	for _, w := range todo {
		cfg := config{seed: *seed, scale: defaultScale, seconds: *seconds, trace: *trace == 1}
		res, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fatal(err)
			}
		}
		res.printHuman(os.Stderr)
		ok = ok && res.Correct
		// The contract line: last line of standard output.
		fmt.Println(res.contractLine())
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload is one workload start to finish: set-up (timed, three
// times over in an untraced run), the measured run (each once the host
// is calm), the check of the
// checkpoint it left behind, and in a traced run the layer replay; then
// the result.
func runWorkload(parent context.Context, cfg config, w *workloadDef) (*result, error) {
	ctx, cancel := context.WithTimeout(parent, workloadCeiling)
	defer cancel()
	b, err := newBench(cfg, ".")
	if err != nil {
		return nil, err
	}
	defer b.cleanup()

	setups := setupRepeats
	if cfg.trace {
		setups = 1
	}
	if err := b.awaitCalm(ctx); err != nil {
		return nil, ceilingErr(ctx, err)
	}
	setupTook, err := b.timedSetup(ctx, w, setups)
	if err != nil {
		return nil, ceilingErr(ctx, err)
	}
	o := newOutcome()
	o.samples["setup_s"] = setupTook
	if err := b.awaitCalm(ctx); err != nil {
		return nil, ceilingErr(ctx, err)
	}
	if err := w.run(ctx, b, o); err != nil {
		return nil, ceilingErr(ctx, err)
	}
	o.layer["host.calm_wait_s"] = b.calmWaited.Seconds()
	if !cfg.trace {
		if err := b.verifyFinal(ctx, w, o); err != nil {
			return nil, ceilingErr(ctx, err)
		}
	} else {
		if err := b.replayLayers(ctx, w, o); err != nil {
			return nil, ceilingErr(ctx, err)
		}
		if err := b.tr.writeJSONL(filepath.Join(b.buildDir, "spans-"+w.name+".jsonl")); err != nil {
			return nil, err
		}
	}
	return newResult(b, w, o), nil
}

// ceilingErr names the ceiling when that is why err happened.
func ceilingErr(ctx context.Context, err error) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("exceeded the %v per-workload ceiling: %w", workloadCeiling, err)
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
