package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: hitlist6
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkReport/engine-1M/workers=1         	       1	1298119250 ns/op	  524288 B/op	    1234 allocs/op	    999959 addrs
BenchmarkReport/engine-1M/workers=8-16      	       1	 310000000 ns/op	  524290 B/op	    1250 allocs/op	    999959 addrs
BenchmarkCollectorMemory/layout=flat-16     	       1	 500000000 ns/op	      58.2 live_B/addr	  97.1 B/op	       0 allocs/op
PASS
ok  	hitlist6	5.109s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b1, ok := rep.Benchmarks["BenchmarkReport/engine-1M/workers=1"]
	if !ok {
		t.Fatal("workers=1 row missing")
	}
	if b1.NsPerOp != 1298119250 || b1.AllocsPerOp != 1234 || b1.Metrics["addrs"] != 999959 {
		t.Fatalf("workers=1 parsed wrong: %+v", b1)
	}
	// GOMAXPROCS suffix must strip from the -16 variants.
	if _, ok := rep.Benchmarks["BenchmarkReport/engine-1M/workers=8"]; !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	cm := rep.Benchmarks["BenchmarkCollectorMemory/layout=flat"]
	if cm.Metrics["live_B/addr"] != 58.2 {
		t.Fatalf("live_B/addr = %v", cm.Metrics["live_B/addr"])
	}
	// Headline block.
	if rep.Headline["report_engine_1m_serial_ns"] != 1298119250 {
		t.Fatalf("headline serial ns wrong: %v", rep.Headline)
	}
	if rep.Headline["report_engine_1m_8w_ns"] != 310000000 {
		t.Fatalf("headline 8w ns wrong: %v", rep.Headline)
	}
	if rep.Headline["corpus_live_b_per_addr"] != 58.2 {
		t.Fatalf("headline b/addr wrong: %v", rep.Headline)
	}
}

const scenarioSample = `goos: linux
BenchmarkScenario/profile=paper-16             	       1	 120000000 ns/op	  310000 events/sec	  61.5 B/addr	  2 probe_p99	  5 probe_max
BenchmarkScenario/profile=eui64-dense-16       	       1	 130000000 ns/op	  280000 events/sec	  70.2 B/addr	  2 probe_p99	  6 probe_max
BenchmarkScenario/profile=collision-16         	       1	  90000000 ns/op	  150000 events/sec	  55.0 B/addr	 512 probe_p99	 640 probe_max
BenchmarkScenario/profile=backpressure-16      	       1	 140000000 ns/op	  200000 events/sec	  60.1 B/addr	  1 probe_p99	  3 probe_max	  8192 drops
PASS
`

// TestScenarioHeadline pins the per-scenario headline keys the bench
// trajectory tracks: one _eps/_b_per_addr pair per profile (dashes
// mapped to underscores), plus the collision probe tail and the
// backpressure shed count.
func TestScenarioHeadline(t *testing.T) {
	rep, err := Parse(strings.NewReader(scenarioSample))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"scenario_paper_eps":               310000,
		"scenario_paper_b_per_addr":        61.5,
		"scenario_eui64_dense_eps":         280000,
		"scenario_collision_eps":           150000,
		"scenario_collision_probe_p99":     512,
		"scenario_collision_probe_max":     640,
		"scenario_backpressure_drops":      8192,
		"scenario_backpressure_b_per_addr": 60.1,
	}
	for key, v := range want {
		if got := rep.Headline[key]; got != v {
			t.Errorf("headline[%q] = %v, want %v", key, got, v)
		}
	}
	// Profiles whose benchmarks are absent must not invent keys.
	if _, ok := rep.Headline["scenario_churn_eps"]; ok {
		t.Error("headline invented a key for an absent benchmark")
	}
}

func TestCompare(t *testing.T) {
	prev, _ := Parse(strings.NewReader(sample))
	faster := strings.ReplaceAll(sample, "1298119250", " 640000000")
	cur, err := Parse(strings.NewReader(faster))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	worst := Compare(&out, prev, cur)
	if worst > 1.01 {
		t.Fatalf("no regression expected, worst = %v", worst)
	}
	if !strings.Contains(out.String(), ">> improvement") {
		t.Fatalf("improvement not flagged:\n%s", out.String())
	}
	// And a regression in the other direction.
	var out2 strings.Builder
	worst = Compare(&out2, cur, prev)
	if worst < 1.5 {
		t.Fatalf("regression not detected, worst = %v", worst)
	}
	if !strings.Contains(out2.String(), "<< regression?") {
		t.Fatalf("regression not flagged:\n%s", out2.String())
	}
}

// TestTierHeadline pins the tier-rewrite headline keys to their rows.
func TestTierHeadline(t *testing.T) {
	rep, err := Parse(strings.NewReader(`goos: linux
BenchmarkCanonicalOrder/addr-2         	      20	  23911749 ns/op	12501000 B/op	       3 allocs/op
BenchmarkCanonicalOrder/iid-2          	      20	  25579917 ns/op	11141127 B/op	       2 allocs/op
BenchmarkWriteTier-2   	      20	  52977541 ns/op	 324.05 MB/s	30113048 B/op	     167 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Headline["tier_write_ns"] != 52977541 || rep.Headline["canonical_order_addr_ns"] != 23911749 {
		t.Fatalf("tier headline wrong: %v", rep.Headline)
	}
}
