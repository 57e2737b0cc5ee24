// Command v6study runs the full reproduction study — passive NTP
// collection over the simulated Internet, the two active comparison
// campaigns, and every analysis of the paper's evaluation — then prints
// the report.
//
// Usage:
//
//	v6study [-seed N] [-scale F] [-days N] [-release FILE]
//
// At -scale 1.0 (≈423k unique addresses) the run takes about 1 s of
// wall time on two x86 cores and peaks near 92 MiB of RSS; memory grows
// about linearly with scale, ≈1.2 GiB at -scale 16. With -debug.listen
// set, the run is observable while it executes: /metrics serves the
// ingest, fold and report-section series of the study's telemetry
// registry, /healthz and /readyz report progress (ready once the report
// is rendered), and /debug/pprof/ exposes profiles — the knob to reach
// for when a full-scale run needs a CPU profile mid-flight.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"hitlist6"
	"hitlist6/internal/telemetry"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "deterministic study seed")
		scale     = flag.Float64("scale", 0.25, "population scale (1.0 = full study size)")
		days      = flag.Int("days", 218, "passive collection window in days")
		release   = flag.String("release", "", "write the /48-truncated NTP release to this file")
		jsonOut   = flag.String("json", "", "write the machine-readable summary to this file")
		debugAddr = flag.String("debug.listen", "", "serve /metrics, /healthz, /readyz and /debug/pprof on this address while the study runs")
		logLevel  = flag.String("log.level", "info", "log threshold: debug, info, warn or error")
		logFormat = flag.String("log.format", "text", "log encoding: text or json")
	)
	flag.Parse()

	log, err := telemetry.NewLogger(telemetry.LogOptions{Level: *logLevel, Format: *logFormat})
	if err != nil {
		fatal(err)
	}

	cfg := hitlist6.DefaultConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	cfg.Days = *days
	if cfg.SliceDay >= cfg.Days {
		cfg.SliceDay = cfg.Days * 2 / 3
	}

	health := telemetry.NewHealth()
	if *debugAddr != "" {
		reg := telemetry.NewRegistry()
		cfg.Telemetry = reg
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/healthz", health.LivenessHandler())
		mux.Handle("/readyz", health.ReadinessHandler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				log.Error("debug http", "error", err)
			}
		}()
		log.Info("debug surface up", "addr", ln.Addr().String())
	}

	study, err := hitlist6.NewStudy(cfg)
	if err != nil {
		fatal(err)
	}
	log.Info("built world; collecting",
		"devices", len(study.World.Devices()), "sites", len(study.World.Sites()), "days", cfg.Days)
	health.SetNotReady("collecting")
	if err := study.Run(); err != nil {
		fatal(err)
	}

	health.SetNotReady("rendering report")
	report, err := study.Report()
	if err != nil {
		fatal(err)
	}
	health.SetReady()
	fmt.Println(report)

	if *jsonOut != "" {
		sm, err := study.Summarize()
		if err != nil {
			fatal(err)
		}
		raw, err := sm.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, raw, 0o644); err != nil {
			fatal(err)
		}
		log.Info("wrote summary", "path", *jsonOut)
	}

	if *release != "" {
		rel, err := study.ReleaseNTP()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*release, []byte(rel), 0o644); err != nil {
			fatal(err)
		}
		log.Info("wrote /48 release", "path", *release)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "v6study:", err)
	os.Exit(1)
}
