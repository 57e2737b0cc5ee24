package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"hitlist6/internal/workload"
	"hitlist6/internal/workload/matrix"
)

func TestListShowsEveryProfile(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"list"}, &out, &errb); code != 0 {
		t.Fatalf("list exited %d: %s", code, errb.String())
	}
	for _, name := range workload.Names() {
		if !strings.Contains(out.String(), name) {
			t.Errorf("list output missing %q:\n%s", name, out.String())
		}
	}
}

func TestListJSON(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"list", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("list -json exited %d: %s", code, errb.String())
	}
	var profiles []profileJSON
	if err := json.Unmarshal(out.Bytes(), &profiles); err != nil {
		t.Fatalf("list -json not valid JSON: %v\n%s", err, out.String())
	}
	if len(profiles) != len(workload.Names()) {
		t.Fatalf("list -json has %d profiles, want %d", len(profiles), len(workload.Names()))
	}
}

func TestDescribe(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"describe", "outage-storm"}, &out, &errb); code != 0 {
		t.Fatalf("describe exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "outage-storm") {
		t.Fatalf("describe output:\n%s", out.String())
	}
	if code := run([]string{"describe", "nope"}, &out, &errb); code != 1 {
		t.Fatalf("describe of unknown profile exited %d, want 1", code)
	}
}

// TestDescribeLegs: describe names every leg the matrix runs for a
// profile — the tier legs of a tiered one and the drop leg of a
// drop-hinted one included — in text and JSON.
func TestDescribeLegs(t *testing.T) {
	for profile, want := range map[string][]string{
		"cold-replay":  {"stream", "restore", "delta-restore", "tier-resident", "tier-budget", "tier-cold"},
		"backpressure": {"stream", "drop"},
	} {
		var out, errb bytes.Buffer
		if code := run([]string{"describe", profile}, &out, &errb); code != 0 {
			t.Fatalf("describe %s exited %d: %s", profile, code, errb.String())
		}
		if line := "  legs: " + strings.Join(want, " ") + "\n"; !strings.Contains(out.String(), line) {
			t.Errorf("describe %s lacks %q:\n%s", profile, line, out.String())
		}
		out.Reset()
		if code := run([]string{"describe", "-json", profile}, &out, &errb); code != 0 {
			t.Fatalf("describe -json %s exited %d: %s", profile, code, errb.String())
		}
		var p profileJSON
		if err := json.Unmarshal(out.Bytes(), &p); err != nil {
			t.Fatalf("describe -json %s not valid JSON: %v\n%s", profile, err, out.String())
		}
		if !slices.Equal(p.Legs, want) {
			t.Errorf("describe -json %s legs %v, want %v", profile, p.Legs, want)
		}
	}
}

func TestUnknownCommand(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"frobnicate"}, &out, &errb); code != 2 {
		t.Fatalf("unknown command exited %d, want 2", code)
	}
}

// TestRunSingleCell drives the CLI end to end over the smallest slice:
// one profile, one seed.
func TestRunSingleCell(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"run", "-seeds", "7", "paper"}, &out, &errb)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "PASS") || !strings.Contains(out.String(), "paper") {
		t.Fatalf("run output:\n%s", out.String())
	}
}

// TestRunJSON checks the machine-readable result round-trips into the
// matrix package's own types.
func TestRunJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"run", "-json", "-seeds", "3", "collision"}, &out, &errb)
	if code != 0 {
		t.Fatalf("run -json exited %d: %s", code, errb.String())
	}
	var res matrix.Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("run -json not valid JSON: %v", err)
	}
	if len(res.Scenarios) != 1 || res.Scenarios[0].Profile != "collision" {
		t.Fatalf("unexpected result: %+v", res)
	}
	if res.Scenarios[0].Headline.ProbeMax == 0 {
		t.Fatal("collision headline lost its probe stats")
	}
}

// TestRunFlagConflict: argument errors exit 2 with a message on stderr
// and never reach the matrix.
func TestRunFlagConflict(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"-all with explicit profiles", []string{"run", "-all", "paper"}, "mutually exclusive"},
		{"no shard axis", []string{"run", "-shards", "1", "paper"}, "flag provided but not defined: -shards"},
		{"bad seed list", []string{"run", "-seeds", "1,x", "paper"}, "-seeds"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%s: exited %d, want 2", tc.name, code)
		}
		if !strings.Contains(errb.String(), tc.stderr) {
			t.Errorf("%s: stderr lacks %q:\n%s", tc.name, tc.stderr, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s: wrote to stdout:\n%s", tc.name, out.String())
		}
	}
}
