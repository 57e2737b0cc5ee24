package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"hitlist6/internal/workload"
)

// studyDays is the paper's collection window.
const studyDays = 218

// config is what the command line fixes for one invocation, and the
// stream's scale, which it does not: defaultScale, except in the smoke
// test.
type config struct {
	seed    int64
	scale   float64
	seconds float64
	trace   bool
}

// bench holds what set-up produces and every workload reads: the built
// binaries, the generated stream in wire form, and the reference replay.
type bench struct {
	cfg      config
	root     string // checkout root; the working directory
	buildDir string // .bench_build: binaries, Go build cache, work dirs
	work     string // this invocation's scratch dir, removed on exit
	tr       *tracer
	rng      *rand.Rand // seeded: start dither

	calmWaited time.Duration // what awaitCalm has waited in this invocation

	ingestd, v6study string

	stream  *workload.Stream
	grow    *wire      // the stream as datagrams
	growRef *reference // replay of the stream

	daemonFlags []string // the flags of the last daemon started, for the environment block

	// udp-resight only: a snapshot dir holding the stream (written by
	// ingestd itself), the re-sighting pass, and the replay of both.
	preloadDir string
	again      *wire
	againRef   *reference

	report []byte // study-batch: the stable part of v6study's report

	// final is the checkpoint the workload's last daemon wrote on
	// SIGTERM and how many events of the input it had been sent; a traced
	// run restores it in-process and compares checksums.
	final struct {
		path   string
		chain  bool
		events int
	}
}

// newBench prepares a run in the checkout rooted at root.
func newBench(cfg config, root string) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "ingestd")); err != nil {
		return nil, fmt.Errorf("%s is not the repository root (no cmd/ingestd): run from the root", root)
	}
	b := &bench{cfg: cfg, root: root, buildDir: filepath.Join(root, ".bench_build"), rng: rand.New(rand.NewSource(cfg.seed))}
	if err := os.MkdirAll(b.buildDir, 0o755); err != nil {
		return nil, err
	}
	b.work, err = os.MkdirTemp(b.buildDir, "work-")
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		b.tr = newTracer()
	}
	return b, nil
}

func (b *bench) cleanup() { os.RemoveAll(b.work) }

// flushCadence is ingestd's udpFlushEvery: the UDP source pushes the
// partial tail of a burst to the shards on this cadence, counted from
// its start.
const flushCadence = 50 * time.Millisecond

// dither sleeps a seeded share of one flush cadence. A burst ends when
// the daemon's next tail flush comes round, so a burst started at a
// fixed offset from the daemon's start ends on a 50 ms grid, and a
// repeat 0.7 s long reads in steps of 7 %. Dithering the start samples
// the tail wait uniformly instead.
func (b *bench) dither() {
	time.Sleep(time.Duration(b.rng.Int63n(int64(flushCadence))))
}

// goBuild builds packages of the module rooted at dir into
// .bench_build/bin. The Go build cache makes every call after the
// first a no-op check.
func (b *bench) goBuild(ctx context.Context, dir string, pkgs ...string) error {
	bin := filepath.Join(b.buildDir, "bin") + string(filepath.Separator)
	cmd := exec.CommandContext(ctx, "go", append([]string{"build", "-o", bin}, pkgs...)...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %v: %w\n%s", pkgs, err, out)
	}
	return nil
}

// setup is the shared set-up — build the two programs under test,
// generate the stream, encode it, replay it into the reference — plus
// the workload's own preparation. It starts from nothing each time it
// is called, so calling it again measures it again.
func (b *bench) setup(ctx context.Context, w *workloadDef) error {
	b.stream, b.grow, b.growRef, b.again, b.againRef = nil, nil, nil, nil, nil
	if err := b.goBuild(ctx, b.root, "./cmd/ingestd", "./cmd/v6study"); err != nil {
		return err
	}
	b.ingestd = filepath.Join(b.buildDir, "bin", "ingestd")
	b.v6study = filepath.Join(b.buildDir, "bin", "v6study")

	st, err := paperStream(b.cfg.seed, b.cfg.scale)
	if err != nil {
		return err
	}
	b.stream = st
	b.grow = encodeWire(st.Events)
	b.growRef = newReference(len(st.Events) / 3)
	b.growRef.observe(st.Events)
	if w.prepare != nil {
		return w.prepare(ctx, b)
	}
	return nil
}

// setupRetries is how many more times timedSetup sets up when the
// hypervisor disturbed some of the first n.
const setupRetries = 2

// timedSetup runs setup until n of them were undisturbed, at most
// n+setupRetries times, and returns the wall times of the undisturbed
// ones (of the cleanest n, when fewer were). The first run pays for a
// cold build cache; the median does not.
func (b *bench) timedSetup(ctx context.Context, w *workloadDef, n int) ([]float64, error) {
	var reps []*repeat
	for clean := 0; clean < n && len(reps) < n+setupRetries; {
		r, err := measureRepeat(func(r *repeat) error {
			start := time.Now()
			if err := b.setup(ctx, w); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			r.add("setup_s", time.Since(start).Seconds())
			return nil
		})
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		if r.steal <= stealLimit {
			clean++
		}
	}
	var took []float64
	for _, r := range undisturbed(reps) {
		took = append(took, r.samples["setup_s"])
	}
	return took, nil
}

// outcome collects what a workload run measured and checked.
type outcome struct {
	// samples holds one value per repeat (or cycle) for each
	// user-visible metric; the reported figure is their median.
	samples map[string][]float64
	// layer holds the per-layer figures of the run.
	layer map[string]float64
	// attempted and failed count operations: events sent, probes,
	// snapshots, and end-state checks.
	attempted, failed int64
	failures          []string
	// notRun lists checks that could not be made (bench/layers no
	// longer builds); they count neither as attempted nor as failed.
	notRun []string
	budget *budget
}

func newOutcome() *outcome {
	return &outcome{samples: make(map[string][]float64), layer: make(map[string]float64)}
}

func (o *outcome) add(name string, v float64) { o.samples[name] = append(o.samples[name], v) }

// fail counts n failed operations and keeps the first few reasons.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one end-state check and fails it when got != want.
func check[T comparable](o *outcome, what string, got, want T) {
	o.attempted++
	if got != want {
		o.fail(1, "%s = %v, want %v", what, got, want)
	}
}
