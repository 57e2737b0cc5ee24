package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// Verdicts of a comparison. Only verdictRegressed fails it.
const (
	verdictWithin     = "within bound"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// comparison is one workload × end-to-end metric row of -compare.
type comparison struct {
	workload, metric, unit string
	a, b                   []float64 // one value per run (or per repeat when a side has one run)
	bound                  float64
	worse                  float64 // by how much b's median is worse than a's, as a share of a's; negative = better
	verdict                string
}

// judge applies the benchmark's rule: b regressed when its median is
// worse than a's by more than the bound; within the bound it is
// unresolved, not unchanged, when either side's interquartile spread
// exceeds the bound — unless every value of b is better than every
// value of a.
func judge(a, b []float64, better string, bound float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	if ma != 0 {
		worse = sign * (mb - ma) / ma
	} else if mb != ma {
		worse = sign * (mb - ma)
	}
	if worse > bound {
		return worse, verdictRegressed
	}
	// Samples that repeat exactly (byte counts of the same input) are
	// resolved however far apart one run's cycles lie.
	if max(spread(a), spread(b)) > bound && !allBetter(a, b, sign) && !slices.Equal(a, b) {
		return worse, verdictUnresolved
	}
	return worse, verdictWithin
}

// allBetter reports whether every value of b is better than every value
// of a; sign is +1 when lower is better.
func allBetter(a, b []float64, sign float64) bool {
	bestA, worstB := sign*a[0], sign*b[0]
	for _, v := range a {
		bestA = min(bestA, sign*v)
	}
	for _, v := range b {
		worstB = max(worstB, sign*v)
	}
	return worstB < bestA
}

func loadResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]*result)
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var r result
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Traced { // end-to-end figures come from untraced runs only
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
}

// values is the distribution one side contributes for a metric: the
// median of each run, or the repeats of its only run.
func values(runs []*result, metric string) []float64 {
	if len(runs) == 1 {
		return runs[0].EndToEnd[metric].Samples
	}
	var v []float64
	for _, r := range runs {
		if s, ok := r.EndToEnd[metric]; ok {
			v = append(v, s.Median)
		}
	}
	return v
}

func failedShare(runs []*result) []float64 {
	var v []float64
	for _, r := range runs {
		v = append(v, r.FailShare)
	}
	return v
}

// sameInput refuses to judge runs that did not measure the same thing:
// every run of a workload, on both sides, must have had the same seed,
// stream and run length.
func sameInput(wl string, runs []*result) error {
	first := runs[0].Env
	for _, r := range runs[1:] {
		e := r.Env
		if e.Seed != first.Seed || e.Events != first.Events || e.Seconds != first.Seconds {
			return fmt.Errorf("%s: runs differ in input (seed %d, %d events, %g s against seed %d, %d events, %g s); compare like with like",
				wl, first.Seed, first.Events, first.Seconds, e.Seed, e.Events, e.Seconds)
		}
	}
	return nil
}

func compareResults(a, b map[string][]*result) ([]comparison, error) {
	var rows []comparison
	for _, wl := range sortedKeys(a) {
		ra, rb := a[wl], b[wl]
		if len(rb) == 0 {
			continue
		}
		if err := sameInput(wl, append(append([]*result(nil), ra...), rb...)); err != nil {
			return nil, err
		}
		for _, name := range sortedKeys(ra[0].EndToEnd) {
			def := ra[0].EndToEnd[name]
			va, vb := values(ra, name), values(rb, name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := comparison{workload: wl, metric: name, unit: def.Unit, a: va, b: vb, bound: def.Bound}
			c.worse, c.verdict = judge(va, vb, def.Better, def.Bound)
			rows = append(rows, c)
		}
		c := comparison{workload: wl, metric: "failed_share", unit: "ratio", a: failedShare(ra), b: failedShare(rb)}
		c.worse, c.verdict = judge(c.a, c.b, "lower", 0)
		rows = append(rows, c)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].workload < rows[j].workload })
	return rows, nil
}

// compareFiles prints the comparison of two result files and reports
// whether any metric regressed.
func compareFiles(w io.Writer, aPath, bPath string) (regressed bool, err error) {
	a, err := loadResults(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadResults(bPath)
	if err != nil {
		return false, err
	}
	rows, err := compareResults(a, b)
	if err != nil {
		return false, err
	}
	if len(rows) == 0 {
		return false, fmt.Errorf("no workload has untraced runs in both %s and %s", aPath, bPath)
	}
	fmt.Fprintf(w, "%-14s %-27s %-6s %36s %36s %8s %6s  %s\n",
		"workload", "metric", "unit", "a: median [q1, q3] n", "b: median [q1, q3] n", "worse", "bound", "verdict")
	for _, c := range rows {
		fmt.Fprintf(w, "%-14s %-27s %-6s %36s %36s %+7.1f%% %5.0f%%  %s\n",
			c.workload, c.metric, c.unit, describe(c.a), describe(c.b), 100*c.worse, 100*c.bound, c.verdict)
		regressed = regressed || c.verdict == verdictRegressed
	}
	return regressed, nil
}

func describe(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.5g [%.5g, %.5g] %d", median(v), q1, q3, len(v))
}
