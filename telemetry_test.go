package hitlist6

import (
	"strings"
	"testing"

	"hitlist6/internal/fold"
	"hitlist6/internal/telemetry"
)

// TestStudyTelemetry runs an instrumented study end to end and checks
// the two invariants of Config.Telemetry: the registry fills with the
// ingest, fold and report families as a well-formed exposition, and
// instrumentation never perturbs results — the report is byte-identical
// to an uninstrumented run of the same seed.
func TestStudyTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("full study run")
	}
	plain := runStudy(t, 7)
	plainReport, err := plain.Report()
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	cfg := testConfig(7)
	cfg.Telemetry = reg
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// NewStudy installed the process-wide fold hook; remove it so later
	// tests run unobserved.
	defer fold.SetTiming(nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	report, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if report != plainReport {
		t.Error("instrumented report differs from uninstrumented run")
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if problems := telemetry.LintExposition(text); len(problems) > 0 {
		t.Errorf("exposition not well-formed: %v", problems)
	}
	for _, want := range []string{
		// The pipeline's counter block and per-batch families.
		"ingest_events_processed_total",
		`ingest_batch_seconds_bucket{le=`,
		`ingest_stage_seconds_bucket{stage="dayslice",le=`,
		// The analysis engine's dispatch timing.
		"fold_dispatch_seconds_count",
		// Report sections and shared-input builds, by name.
		`report_section_seconds_count{section="table1"}`,
		`report_section_seconds_count{section="geolocation"}`,
		`report_section_seconds_count{section="input:tracking"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every report section plus every shared input ran exactly once.
	h := reg.Histogram("report_section_seconds",
		"Wall time of one report section render or shared-input build.",
		telemetry.DurationBuckets(), telemetry.L("section", "header"))
	if h.Count() != 1 {
		t.Errorf("header section observed %d times, want 1", h.Count())
	}
}
