package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestBrokenPackageFails runs the binary's guts over the fixture
// carrying the two acceptance violations — a determinism-critical map
// range and a *string field in a slab struct — and demands exit 1 with
// both findings in the output.
func TestBrokenPackageFails(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"./testdata/src/broken"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	text := out.String()
	for _, want := range []string{"range over map", "not pointer-free", "*string"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestBrokenJSON checks the machine-readable mode: a JSON array of
// findings with file/line/analyzer/message populated.
func TestBrokenJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "./testdata/src/broken"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errb.String())
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, out.String())
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2: %+v", len(diags), diags)
	}
	analyzers := map[string]bool{}
	for _, d := range diags {
		if d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("incomplete finding: %+v", d)
		}
		analyzers[d.Analyzer] = true
	}
	if !analyzers["mapiter"] || !analyzers["noptrslab"] {
		t.Errorf("findings = %+v, want one mapiter and one noptrslab", diags)
	}
}

// TestBenchReferencesCount runs the whole-module suite over a fixture
// module whose lib package has two exported funcs: one only its bench/
// module calls, one nothing calls. deadsym must load bench/ and report
// the second alone.
func TestBenchReferencesCount(t *testing.T) {
	t.Chdir("testdata/src/benchref")
	var out, errb bytes.Buffer
	code := run([]string{"./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	want := "lib/lib.go:8:6: deadsym: func Dead is used only by tests or not at all"
	if got := strings.TrimSpace(out.String()); !strings.HasPrefix(got, want) || strings.Count(got, "\n") != 0 {
		t.Errorf("findings:\n%s\nwant exactly one, starting %q", got, want)
	}
}

// TestCleanPackagePasses demands exit 0 and empty stdout on code with
// nothing to flag.
func TestCleanPackagePasses(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"./testdata/src/clean"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("expected empty output, got:\n%s", out.String())
	}
}

// TestCleanJSONShape pins the clean-tree -json contract CI scripts
// rely on: an empty array, not null.
func TestCleanJSONShape(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "./testdata/src/clean"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, errb.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}

// TestBadPatternIsOperationalFailure distinguishes "findings" from
// "could not analyze": a bogus pattern is exit 2.
func TestBadPatternIsOperationalFailure(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"./testdata/src/does-not-exist"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}
