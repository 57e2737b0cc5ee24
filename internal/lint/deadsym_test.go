package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hitlist6/internal/lint"
	"hitlist6/internal/lint/linttest"
)

func TestDeadSym(t *testing.T) {
	linttest.Run(t, lint.DeadSym(), "./testdata/src/deadsym")
}

// deadSymModule is the go.mod of every TestDeadSymRules module, and
// benchModule that of a bench/ module beside it.
const (
	deadSymModule = "module fix\n\ngo 1.24\n"
	benchModule   = "module fix/bench\n\ngo 1.24\n\nrequire fix v0.0.0\n\nreplace fix => ../\n"
)

// TestDeadSymRules runs deadsym over one small module per rule, so a
// broken rule fails under its own name. Each case lists its files
// (go.mod is added) and every finding it expects, as
// "file:line: message prefix"; any other finding fails the case.
func TestDeadSymRules(t *testing.T) {
	cases := []struct {
		name    string
		pattern string // what the run loads; "./..." when empty
		files   map[string]string
		want    []string
	}{
		{
			name: "called by the program",
			files: map[string]string{
				"main.go":         "package main\n\nimport \"fix/internal/p\"\n\nfunc main() { p.Live() }\n",
				"internal/p/p.go": "package p\n\nfunc Live() {}\n",
			},
		},
		{
			name: "called only from a test file",
			files: map[string]string{
				"main.go":              "package main\n\nimport \"fix/internal/p\"\n\nfunc main() { p.Live() }\n",
				"internal/p/p.go":      "package p\n\nfunc Live() {}\n\nfunc Dead() {}\n",
				"internal/p/p_test.go": "package p\n\nimport \"testing\"\n\nfunc TestDead(t *testing.T) { Dead() }\n",
			},
			want: []string{"internal/p/p.go:5: func Dead is used only by tests or not at all"},
		},
		{
			name: "type reached through a signature",
			files: map[string]string{
				"main.go":         "package main\n\nimport \"fix/internal/p\"\n\nfunc main() { p.Do(nil) }\n",
				"internal/p/p.go": "package p\n\ntype Opt struct{ N int }\n\nfunc Do(o *Opt) {}\n",
			},
		},
		{
			name: "method called statically",
			files: map[string]string{
				"main.go":         "package main\n\nimport \"fix/internal/p\"\n\nfunc main() { p.T{}.M() }\n",
				"internal/p/p.go": "package p\n\ntype T struct{}\n\nfunc (T) M() {}\n",
			},
		},
		{
			name: "method nothing calls on a live type",
			files: map[string]string{
				"main.go":         "package main\n\nimport \"fix/internal/p\"\n\nfunc main() { _ = p.T{} }\n",
				"internal/p/p.go": "package p\n\ntype T struct{}\n\nfunc (T) Dead() {}\n",
			},
			want: []string{"internal/p/p.go:5: method T.Dead is used only by tests or not at all"},
		},
		{
			name: "method of a standard-library interface",
			files: map[string]string{
				"main.go":         "package main\n\nimport (\n\t\"fmt\"\n\n\t\"fix/internal/p\"\n)\n\nfunc main() { fmt.Println(p.T{}) }\n",
				"internal/p/p.go": "package p\n\ntype T struct{}\n\nfunc (T) String() string { return \"t\" }\n",
			},
		},
		{
			name: "half an interface is no exemption",
			files: map[string]string{
				"main.go": "package main\n\nimport \"fix/internal/p\"\n\nfunc main() { p.Use(nil); _ = p.Sq{} }\n",
				"internal/p/p.go": "package p\n\ntype Shape interface {\n\tArea() float64\n\tPerim() float64\n}\n\n" +
					"func Use(s Shape) { s.Area(); s.Perim() }\n\n" +
					"type Sq struct{}\n\nfunc (Sq) Area() float64 { return 0 }\n",
			},
			want: []string{"internal/p/p.go:12: method Sq.Area is used only by tests or not at all"},
		},
		{
			name: "exported method of an unexported type",
			files: map[string]string{
				"main.go":         "package main\n\nimport \"fix/internal/p\"\n\nfunc main() { _ = p.New() }\n",
				"internal/p/p.go": "package p\n\ntype t struct{}\n\nfunc (t) Exported() {}\n\nfunc New() any { return t{} }\n",
			},
		},
		{
			name: "method of a generic type",
			files: map[string]string{
				"main.go":         "package main\n\nimport \"fix/internal/p\"\n\nfunc main() { _ = p.Box[int]{}.Get() }\n",
				"internal/p/p.go": "package p\n\ntype Box[T any] struct{ v T }\n\nfunc (b Box[T]) Get() T { return b.v }\n",
			},
		},
		{
			name: "reference from its own declaration",
			files: map[string]string{
				"main.go":         "package main\n\nimport \"fix/internal/p\"\n\nfunc main() { p.Live() }\n",
				"internal/p/p.go": "package p\n\nfunc Live() {}\n\ntype List struct{ Next *List }\n",
			},
			want: []string{"internal/p/p.go:5: type List is used only by tests or not at all"},
		},
		{
			name: "plain const group",
			files: map[string]string{
				"main.go":         "package main\n\nimport \"fix/internal/p\"\n\nfunc main() { println(p.A) }\n",
				"internal/p/p.go": "package p\n\nconst (\n\tA = 1\n\tB = 2\n)\n",
			},
			want: []string{"internal/p/p.go:5: const B is used only by tests or not at all"},
		},
		{
			name: "iota group",
			files: map[string]string{
				"main.go":         "package main\n\nimport \"fix/internal/p\"\n\nfunc main() { println(p.Low) }\n",
				"internal/p/p.go": "package p\n\nconst (\n\tLow = iota\n\tMid\n\tHigh\n)\n",
			},
		},
		{
			name: "api directive with a reason",
			files: map[string]string{
				"main.go":         "package main\n\nimport \"fix/internal/p\"\n\nfunc main() { p.Live() }\n",
				"internal/p/p.go": "package p\n\nfunc Live() {}\n\n//lint:api the tests of three packages share it\nfunc Helper() {}\n",
			},
		},
		{
			name: "bare api directive",
			files: map[string]string{
				"main.go":         "package main\n\nimport \"fix/internal/p\"\n\nfunc main() { p.Live() }\n",
				"internal/p/p.go": "package p\n\nfunc Live() {}\n\n//lint:api\nfunc Helper() {}\n",
			},
			want: []string{"internal/p/p.go:5: //lint:api requires a justification"},
		},
		{
			name: "internal package nothing imports",
			files: map[string]string{
				"main.go":                   "package main\n\nfunc main() {}\n",
				"internal/orphan/o.go":      "package orphan\n\nfunc f() {}\n",
				"internal/orphan/o_test.go": "package orphan\n\nimport \"testing\"\n\nfunc TestF(t *testing.T) { f() }\n",
			},
			want: []string{"internal/orphan/o.go:1: package fix/internal/orphan is imported by no non-test package"},
		},
		{
			name: "internal package kept by its package clause",
			files: map[string]string{
				"main.go":              "package main\n\nfunc main() {}\n",
				"internal/orphan/o.go": "// Package orphan is a fixture.\n//\n//lint:api the fixture of an external tool\npackage orphan\n",
			},
		},
		{
			name: "package outside internal",
			files: map[string]string{
				"main.go":    "package main\n\nfunc main() {}\n",
				"lib/lib.go": "package lib\n\nfunc f() {}\n",
			},
		},
		{
			name: "referenced only from bench",
			files: map[string]string{
				"main.go":       "package main\n\nfunc main() {}\n",
				"lib/lib.go":    "package lib\n\nfunc BenchOnly() int { return 1 }\n",
				"bench/go.mod":  benchModule,
				"bench/main.go": "package main\n\nimport \"fix/lib\"\n\nfunc main() { println(lib.BenchOnly()) }\n",
			},
		},
		{
			name: "bench loaded but silent",
			files: map[string]string{
				"main.go":       "package main\n\nfunc main() {}\n",
				"lib/lib.go":    "package lib\n\nfunc Dead() int { return 1 }\n",
				"bench/go.mod":  benchModule,
				"bench/main.go": "package main\n\nfunc main() {}\n",
			},
			want: []string{"lib/lib.go:3: func Dead is used only by tests or not at all"},
		},
		{
			name:    "partial run",
			pattern: "./internal/p",
			files: map[string]string{
				"main.go":         "package main\n\nfunc main() {}\n",
				"internal/p/p.go": "package p\n\nfunc Dead() {}\n",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			files := map[string]string{"go.mod": deadSymModule}
			for name, src := range tc.files {
				files[name] = src
			}
			for name, src := range files {
				path := filepath.Join(dir, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			pattern := tc.pattern
			if pattern == "" {
				pattern = "./..."
			}
			pkgs, err := lint.Load(dir, pattern)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, d := range lint.Run([]*lint.Analyzer{lint.DeadSym()}, pkgs) {
				rel, err := filepath.Rel(dir, d.File)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), d.Line, d.Message))
			}
			left := slices.Clone(tc.want)
			for _, g := range got {
				i := slices.IndexFunc(left, func(w string) bool { return strings.HasPrefix(g, w) })
				if i < 0 {
					t.Errorf("unexpected finding: %s", g)
					continue
				}
				left = slices.Delete(left, i, i+1)
			}
			for _, w := range left {
				t.Errorf("missing finding: %s", w)
			}
		})
	}
}
