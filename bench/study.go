package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// unstableSection heads the one block of the report that is not a
// function of the seed: wigle.Build draws from its rng while ranging
// over a map, so the wardriving noise differs from run to run, and now
// and then (about one run in twenty at seed 10) it moves the counts that
// section prints. The block runs to the next blank line.
const unstableSection = "Section 5.3:"

// stableReport is the report without the unstableSection block: the
// bytes that must repeat exactly.
func stableReport(report []byte) []byte {
	var out []byte
	skipping := false
	for _, line := range bytes.SplitAfter(report, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(unstableSection)) {
			skipping = true
		} else if skipping && len(bytes.TrimSpace(line)) == 0 {
			skipping = false
		}
		if !skipping {
			out = append(out, line...)
		}
	}
	return out
}

// firstDifference names the first line at which two texts differ.
func firstDifference(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d: %q, want %q", i+1, gl, wl)
		}
	}
	return "no difference"
}

// runStudyBatch runs v6study on the same seed, scale and window as the
// stream, a new process each repeat, and checks its report: the stable
// part identical every repeat, and an observations line that matches
// the benchmark's own replay of the stream. How many distinct whole
// reports the repeats printed is study.report_variants.
func runStudyBatch(ctx context.Context, b *bench, o *outcome) error {
	events := len(b.grow.events)
	wantLine := fmt.Sprintf("Observations: %s queries, %s unique addresses, %s unique IIDs",
		commas(events), commas(len(b.growRef.addrs)), commas(len(b.growRef.iids)))
	variants := make(map[[sha256.Size]byte]struct{})
	err := repeatUntil(o, b.cfg.seconds, func(rep int, r *repeat) error {
		_, end := b.tr.begin(rep, 0, "v6study")
		run, err := runStudy(ctx, b.v6study,
			"-seed", strconv.FormatInt(b.cfg.seed, 10),
			"-scale", strconv.FormatFloat(b.cfg.scale, 'g', -1, 64),
			"-days", strconv.Itoa(studyDays), "-log.level", "error")
		end(int64(events))
		if err != nil {
			return err
		}
		o.attempted += 2
		variants[sha256.Sum256(run.report)] = struct{}{}
		stable := stableReport(run.report)
		if rep == 0 {
			b.report = stable
		} else if !bytes.Equal(stable, b.report) {
			o.fail(1, "repeat %d: report differs from repeat 0 at %s", rep, firstDifference(stable, b.report))
		}
		if lines := strings.SplitN(string(run.report), "\n", 3); len(lines) < 2 || lines[1] != wantLine {
			o.fail(1, "repeat %d: report line 2 is not %q", rep, wantLine)
		}
		r.add("events_per_s", float64(events)/run.wall.Seconds())
		r.add("cpu_us_per_event", run.cpu.Seconds()/float64(events)*1e6)
		r.add("peak_rss_mb", run.peakRSSMB)
		r.add("study_wall_s", run.wall.Seconds())
		r.add("study_cpu_s", run.cpu.Seconds())
		return nil
	})
	o.layer["study.report_variants"] = float64(len(variants))
	return err
}

type studyRun struct {
	report    []byte
	wall, cpu time.Duration
	peakRSSMB float64
}

// runStudy runs v6study to completion with its report going to a pipe
// one page deep. The report is one write several pages long at the very
// end of the run, so when the pipe turns readable the study is done and
// blocked on the rest of its output: that is when its peak resident set
// is read from /proc, which no longer has it once the process exits.
func runStudy(ctx context.Context, bin string, args ...string) (*studyRun, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if err := shrinkPipe(w); err != nil {
		w.Close()
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = w, &stderr
	start := time.Now()
	err = cmd.Start()
	w.Close()
	if err != nil {
		return nil, fmt.Errorf("start v6study: %w", err)
	}
	run := &studyRun{}
	peakErr := waitReadable(r)
	if peakErr == nil {
		run.peakRSSMB, peakErr = procPeakRSSMB(cmd.Process.Pid)
	}
	run.report, err = io.ReadAll(r)
	waitErr := cmd.Wait()
	run.wall = time.Since(start)
	if waitErr != nil {
		return nil, fmt.Errorf("v6study: %w: %s", waitErr, stderr.String())
	}
	if err != nil {
		return nil, fmt.Errorf("read report: %w", err)
	}
	if peakErr != nil {
		return nil, fmt.Errorf("v6study peak RSS: %w", peakErr)
	}
	run.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	return run, nil
}

// waitReadable blocks until f has data to read (or is at EOF), without
// reading any.
func waitReadable(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	calls := 0
	// The first call declines, so Read parks until the poller reports
	// the descriptor readable; the second accepts.
	return rc.Read(func(uintptr) bool { calls++; return calls > 1 })
}

// commas formats n with thousands separators, as the report does.
func commas(n int) string {
	s := strconv.Itoa(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}
