package hitlist6

import (
	"flag"
	"os"
	"testing"
)

// updateGolden regenerates the golden report fixtures:
//
//	go test -run TestReportGolden -update .
//
// golden_report_seed1.txt pins the pre-engine serial renderer's exact
// bytes and must never be regenerated casually — only when the report
// format itself changes on purpose. golden_report_seed2.txt pins a
// second, independent world so report determinism is held at two
// points, not one; it follows the same rule.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_report_*.txt")

// TestReportGoldenAndWorkerEquivalence pins the parallel analysis
// engine's two exactness contracts at once:
//
//  1. Report() is byte-identical to the pre-engine serial implementation
//     (testdata/golden_report_seed1.txt was rendered by the map-based
//     Dataset + serial analysis code on the same configuration), and
//  2. Report() is byte-identical across worker counts — the fold/merge
//     decomposition introduces no ordering or floating-point drift.
//
// Run under -race (CI does) this also exercises the concurrent section
// orchestration against the shared sidecars, world and collector.
func TestReportGoldenAndWorkerEquivalence(t *testing.T) {
	goldenReportAt(t, 1, "testdata/golden_report_seed1.txt")
}

// TestReportGoldenSeed2 is the same contract pinned at a second,
// independent world (seed 2): a renderer change that happens to cancel
// out on seed 1's particular counts cannot also cancel on an unrelated
// world, so two fixtures make format drift strictly harder to slip by.
func TestReportGoldenSeed2(t *testing.T) {
	goldenReportAt(t, 2, "testdata/golden_report_seed2.txt")
}

// goldenReportAt checks Report() against the fixture at every worker
// count, regenerating the fixture first under -update (from the serial
// workers=1 run, so a worker-dependent bug cannot bake itself into the
// fixture it is later compared against).
func goldenReportAt(t *testing.T, seed int64, path string) {
	t.Helper()
	if *updateGolden {
		s := runStudy(t, seed)
		s.Config.AnalysisWorkers = 1
		got, err := s.Report()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden report: %v", err)
	}

	// A fresh study per worker count, so each report is built from
	// inputs no earlier worker count has touched. (Consecutive Report
	// calls on one study print the same bytes too: the backscan campaign
	// is selected once, during the pass; see TestBackscanIsOneCampaign.)
	for _, workers := range []int{1, 4, 16} {
		s := runStudy(t, seed)
		s.Config.AnalysisWorkers = workers
		got, err := s.Report()
		if err != nil {
			t.Fatalf("Report(workers=%d): %v", workers, err)
		}
		if got != string(want) {
			t.Errorf("Report(workers=%d, seed=%d) diverges from the golden report (%d vs %d bytes)",
				workers, seed, len(got), len(want))
		}
	}
}

// TestSummaryWorkerEquivalence runs the machine-readable summary across
// worker counts: every headline number the paper quotes must be exactly
// worker-independent, not just the rendered text.
func TestSummaryWorkerEquivalence(t *testing.T) {
	var base []byte
	for _, workers := range []int{1, 4, 16} {
		s := runStudy(t, 7) // fresh study per count; see the golden test
		s.Config.AnalysisWorkers = workers
		sm, err := s.Summarize()
		if err != nil {
			t.Fatalf("Summarize(workers=%d): %v", workers, err)
		}
		js, err := sm.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = js
		} else if string(js) != string(base) {
			t.Errorf("Summarize(workers=%d) diverges from workers=1", workers)
		}
	}
}
