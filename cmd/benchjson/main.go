// Command benchjson converts Go benchmark output (the bench-results text
// artifact CI already uploads) into machine-readable JSON, and compares
// two such JSON files so the perf trajectory is tracked per PR instead
// of eyeballed.
//
//	benchjson -in bench.txt -out BENCH_report.json
//	benchjson -compare prev/BENCH_report.json -in bench.txt
//
// The JSON carries every benchmark's ns/op, B/op, allocs/op and custom
// metrics (live_B/addr, events/sec, ...), plus a headline block with the
// numbers the ROADMAP tracks: report generation wall time (serial and
// 8-worker, from BenchmarkReport), corpus bytes per address and the
// engine allocation count. Comparison output is advisory — it prints
// per-benchmark deltas and flags regressions on stderr, but exits 0
// unless -fail-over is set, because single-run CI benchmarks are noisy.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// NsPerOp is the wall time per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// BPerOp / AllocsPerOp come from -benchmem (0 when absent).
	BPerOp      float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every custom b.ReportMetric unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_report.json document.
type Report struct {
	Schema int `json:"schema"`
	// Headline is the at-a-glance block: report wall times, corpus
	// bytes/addr, engine allocs.
	Headline map[string]float64 `json:"headline,omitempty"`
	// Benchmarks maps the full benchmark name (GOMAXPROCS suffix
	// stripped) to its parsed numbers.
	Benchmarks map[string]Benchmark `json:"benchmarks"`
}

// benchLine matches "BenchmarkName-8  <iters>  <fields>".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// Parse reads go test -bench output into a Report.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{Schema: 1, Benchmarks: map[string]Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name, rest := m[1], strings.Fields(m[3])
		b := Benchmark{Metrics: map[string]float64{}}
		// rest is value/unit pairs: 123 ns/op 456 B/op 7 allocs/op 1.5 x/sec
		for i := 0; i+1 < len(rest); i += 2 {
			v, err := strconv.ParseFloat(rest[i], 64)
			if err != nil {
				continue
			}
			switch unit := rest[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				b.Metrics[unit] = v
			}
		}
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
		rep.Benchmarks[name] = b
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep.Headline = headline(rep.Benchmarks)
	return rep, nil
}

// headline extracts the tracked numbers when their benchmarks are
// present.
func headline(bs map[string]Benchmark) map[string]float64 {
	h := map[string]float64{}
	pick := func(key, bench string, metric string) {
		b, ok := bs[bench]
		if !ok {
			return
		}
		if metric == "" {
			h[key] = b.NsPerOp
			return
		}
		if v, ok := b.Metrics[metric]; ok {
			h[key] = v
		}
	}
	pick("report_engine_1m_serial_ns", "BenchmarkReport/engine-1M/workers=1", "")
	pick("report_engine_1m_8w_ns", "BenchmarkReport/engine-1M/workers=8", "")
	pick("report_full_serial_ns", "BenchmarkReport/full/workers=1", "")
	pick("report_full_8w_ns", "BenchmarkReport/full/workers=8", "")
	if b, ok := bs["BenchmarkReport/engine-1M/workers=1"]; ok {
		h["report_engine_1m_allocs"] = b.AllocsPerOp
	}
	pick("corpus_live_b_per_addr", "BenchmarkCollectorMemory/layout=flat", "live_B/addr")
	// Telemetry overhead proof: the off/on events-per-second pair. Their
	// ratio is the observe-path cost the instrumentation budget caps at 2%.
	pick("ingest_telemetry_off_eps", "BenchmarkTelemetryOverhead/telemetry=off", "events/sec")
	pick("ingest_telemetry_on_eps", "BenchmarkTelemetryOverhead/telemetry=on", "events/sec")
	// Wire-speed ingest: events/sec through the whole UDP socket path
	// (recvmmsg + zero-alloc parse + pipeline), and the byte parser's
	// cost and its zero-allocation claim.
	pick("udp_socket_eps", "BenchmarkUDPIngest", "events/sec")
	pick("parse_event_bytes_ns", "BenchmarkParseEventBytes", "")
	if b, ok := bs["BenchmarkParseEventBytes"]; ok {
		h["parse_event_bytes_allocs"] = b.AllocsPerOp
	}
	// Tiered corpus (internal/pager) and the delta-chain checkpoints:
	// delta write bandwidth against the full-snapshot baseline, the cold
	// point-lookup pair (a filter miss answers without I/O; a filter hit
	// pays one chunk load), and the streaming fold's off-file walk rate.
	pick("delta_checkpoint_mb_s", "BenchmarkDeltaCheckpoint/mode=delta", "MB/s")
	pick("full_checkpoint_mb_s", "BenchmarkDeltaCheckpoint/mode=full", "MB/s")
	pick("cold_contains_ns", "BenchmarkColdContains/filter=miss", "")
	pick("cold_contains_hit_ns", "BenchmarkColdContains/filter=hit", "")
	pick("streaming_report_eps", "BenchmarkStreamingReport", "addrs/sec")
	// One whole tier rewrite, and the canonical address order inside it.
	pick("tier_write_ns", "BenchmarkWriteTier", "")
	pick("canonical_order_addr_ns", "BenchmarkCanonicalOrder/addr", "")
	// The scenario matrix (internal/workload/matrix): one headline pair
	// per named profile, so each workload regime's trajectory is tracked
	// on its own instead of only in aggregate. The adversarial profiles
	// add the number they exist to watch: the collision cluster's
	// probe-run tail and the backpressure cell's shed count.
	for _, prof := range []string{
		"paper", "churn", "eui64-dense", "outage-storm", "collision", "cold-replay", "backpressure",
	} {
		bench := "BenchmarkScenario/profile=" + prof
		key := "scenario_" + strings.ReplaceAll(prof, "-", "_")
		pick(key+"_eps", bench, "events/sec")
		pick(key+"_b_per_addr", bench, "B/addr")
	}
	pick("scenario_collision_probe_p99", "BenchmarkScenario/profile=collision", "probe_p99")
	pick("scenario_collision_probe_max", "BenchmarkScenario/profile=collision", "probe_max")
	pick("scenario_backpressure_drops", "BenchmarkScenario/profile=backpressure", "drops")
	if len(h) == 0 {
		return nil
	}
	return h
}

// Compare prints per-benchmark ns/op deltas of cur against prev and
// returns the worst regression ratio observed.
func Compare(w io.Writer, prev, cur *Report) float64 {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		if _, ok := prev.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	worst := 1.0
	fmt.Fprintf(w, "%-60s %14s %14s %8s\n", "benchmark", "prev ns/op", "cur ns/op", "ratio")
	for _, name := range names {
		p, c := prev.Benchmarks[name], cur.Benchmarks[name]
		if p.NsPerOp <= 0 || c.NsPerOp <= 0 {
			continue
		}
		ratio := c.NsPerOp / p.NsPerOp
		if ratio > worst {
			worst = ratio
		}
		flag := ""
		if ratio > 1.25 {
			flag = "  << regression?"
		} else if ratio < 0.8 {
			flag = "  >> improvement"
		}
		fmt.Fprintf(w, "%-60s %14.0f %14.0f %7.2fx%s\n", name, p.NsPerOp, c.NsPerOp, ratio, flag)
	}
	for key, pv := range prev.Headline {
		if cv, ok := cur.Headline[key]; ok && pv > 0 {
			fmt.Fprintf(w, "headline %-40s %14.1f -> %14.1f (%.2fx)\n", key, pv, cv, cv/pv)
		}
	}
	return worst
}

func main() {
	in := flag.String("in", "bench.txt", "benchmark text output to parse")
	out := flag.String("out", "", "write BENCH_report.json here")
	compare := flag.String("compare", "", "previous BENCH_report.json to diff against")
	failOver := flag.Float64("fail-over", 0, "exit 1 when the worst ns/op regression ratio exceeds this (0 = never fail)")
	flag.Parse()

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep, err := Parse(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in", *in)
	}

	if *out != "" {
		js, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		js = append(js, '\n')
		if err := os.WriteFile(*out, js, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
	}

	if *compare != "" {
		pf, err := os.Open(*compare)
		if err != nil {
			// A missing previous artifact is normal on the first run.
			fmt.Fprintln(os.Stderr, "benchjson: no previous report to compare:", err)
			return
		}
		var prev Report
		err = json.NewDecoder(pf).Decode(&prev)
		pf.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: previous report unreadable:", err)
			return
		}
		worst := Compare(os.Stdout, &prev, rep)
		if *failOver > 0 && worst > *failOver {
			fmt.Fprintf(os.Stderr, "benchjson: worst regression %.2fx exceeds -fail-over %.2fx\n", worst, *failOver)
			os.Exit(1)
		}
	}
}
