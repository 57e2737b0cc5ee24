// Package linttest is the analysistest stand-in for the in-repo lint
// suite: it loads a testdata package, runs one analyzer over it, and
// checks the findings against `// want` expectations embedded in the
// source — same grammar as x/tools analysistest, one or more quoted
// regexps on the line the diagnostic should land on:
//
//	for k := range m { // want `range over map`
//
// Every want must be matched by a diagnostic on its line and every
// diagnostic must be covered by a want; anything else fails the test.
//
// When the expected diagnostic lands on a line that must end in a
// line comment — a bare //lint: directive being reported for its
// missing justification — the want rides a block comment before it:
//
//	/* want `requires a justification` */ //lint:ordered
//
//lint:api the analyzers' shared test driver
package linttest

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hitlist6/internal/lint"
)

// expectation is one `// want` regexp with its location.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// Run loads the package at pattern (relative to the test's working
// directory, e.g. "./testdata/src/mapiter") and verifies analyzer's
// findings against its want comments. The analyzer value must be
// fresh — analyzers accumulate cross-package state. A pattern naming a
// directory with its own go.mod is a fixture module, loaded whole: the
// form whole-program analyzers (deadsym) need.
//
//lint:api the analyzers' shared test driver
func Run(t *testing.T, analyzer *lint.Analyzer, pattern string) {
	t.Helper()
	dir := "."
	if _, err := os.Stat(filepath.Join(pattern, "go.mod")); err == nil {
		dir, pattern = pattern, "./..."
	}
	pkgs, err := lint.Load(dir, pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	diags := lint.Run([]*lint.Analyzer{analyzer}, pkgs)

	var wants []*expectation
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					pos := pkg.Fset.Position(c.Pos())
					for _, pat := range parseWant(t, pos.String(), c.Text) {
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: pat})
					}
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.used || w.file != d.File || w.line != d.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// parseWant extracts the quoted regexps from a `// want "..." `...“
// comment. Comments without the marker yield nil.
func parseWant(t *testing.T, at, text string) []*regexp.Regexp {
	t.Helper()
	if strings.HasPrefix(text, "/*") {
		text = "// " + strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/"))
	}
	const marker = "// want "
	i := strings.Index(text, marker)
	if i < 0 {
		return nil
	}
	rest := strings.TrimSpace(text[i+len(marker):])
	var pats []*regexp.Regexp
	for rest != "" {
		var raw string
		var err error
		switch rest[0] {
		case '"':
			end := matchedQuote(rest)
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern: %s", at, rest)
			}
			raw, err = strconv.Unquote(rest[:end+1])
			rest = strings.TrimSpace(rest[end+1:])
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern: %s", at, rest)
			}
			raw = rest[1 : 1+end]
			rest = strings.TrimSpace(rest[end+2:])
		default:
			t.Fatalf("%s: malformed want pattern (expected quoted regexp): %s", at, rest)
		}
		if err != nil {
			t.Fatalf("%s: bad want pattern: %v", at, err)
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			t.Fatalf("%s: bad want regexp: %v", at, err)
		}
		pats = append(pats, re)
	}
	return pats
}

// matchedQuote returns the index of the closing '"' of a Go-quoted
// string starting at 0, honoring backslash escapes, or -1.
func matchedQuote(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return -1
}
