// Command v6study runs the full reproduction study — passive NTP
// collection over the simulated Internet, the two active comparison
// campaigns, and every analysis of the paper's evaluation — then prints
// the report.
//
// Usage:
//
//	v6study [-seed N] [-scale F] [-days N] [-release FILE] [-json FILE]
//	        [-outdir DIR] [-debug.listen ADDR] [-log.level L] [-log.format F]
//
// -release writes the NTP corpus in the /48-truncated form the paper's
// ethics section allows to share, and -json the machine-readable
// summary. -outdir writes the three Table 1 datasets in the binary
// format the dataset tool reads (ntp.hl6, hitlist.hl6, caida.hl6; full
// addresses, for local analysis, not publication) and the Hitlist's
// alias list (aliased-prefixes.txt).
//
// At -scale 1.0 (≈423k unique addresses) the run takes about 1 s of
// wall time on two x86 cores and peaks near 92 MiB of RSS; memory grows
// about linearly with scale, ≈1.2 GiB at -scale 16. With -debug.listen
// set, the run is observable while it executes: /metrics serves the
// ingest, fold and report-section series of the study's telemetry
// registry, /healthz and /readyz report progress (ready once the report
// is rendered), and /debug/pprof/ exposes profiles — the knob to reach
// for when a full-scale run needs a CPU profile mid-flight. The server
// stops when the study's files are written.
//
//lint:durable-path -outdir writes the datasets behind Table 1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"

	"hitlist6"
	"hitlist6/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, prints the report to
// stdout, logs to stderr and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("v6study", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 1, "deterministic study seed")
		scale     = fs.Float64("scale", 0.25, "population scale (1.0 = full study size)")
		days      = fs.Int("days", 218, "passive collection window in days")
		release   = fs.String("release", "", "write the /48-truncated NTP release to this file")
		jsonOut   = fs.String("json", "", "write the machine-readable summary to this file")
		outdir    = fs.String("outdir", "", "write the Table 1 datasets and the Hitlist's alias list into this directory")
		debugAddr = fs.String("debug.listen", "", "serve /metrics, /healthz, /readyz and /debug/pprof on this address while the study runs")
		logLevel  = fs.String("log.level", "info", "log threshold: debug, info, warn or error")
		logFormat = fs.String("log.format", "text", "log encoding: text or json")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "v6study:", err)
		return 1
	}

	log, err := telemetry.NewLogger(telemetry.LogOptions{Level: *logLevel, Format: *logFormat, Output: stderr})
	if err != nil {
		return fail(err)
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
			return fail(err)
		}
		srv := &http.Server{Handler: mux}
		served := make(chan struct{})
		go func() {
			defer close(served)
			if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				log.Error("debug http", "error", err)
			}
		}()
		defer func() {
			if err := srv.Close(); err != nil {
				log.Error("debug http close", "error", err)
			}
			<-served
		}()
		log.Info("debug surface up", "addr", ln.Addr().String())
	}

	study, err := hitlist6.NewStudy(cfg)
	if err != nil {
		return fail(err)
	}
	log.Info("built world; collecting",
		"devices", len(study.World.Devices()), "sites", len(study.World.Sites()), "days", cfg.Days)
	health.SetNotReady("collecting")
	if err := study.Run(); err != nil {
		return fail(err)
	}

	health.SetNotReady("rendering report")
	report, err := study.Report()
	if err != nil {
		return fail(err)
	}
	health.SetReady()
	fmt.Fprintln(stdout, report)

	if *jsonOut != "" {
		sm, err := study.Summarize()
		if err != nil {
			return fail(err)
		}
		raw, err := sm.JSON()
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*jsonOut, raw, 0o644); err != nil {
			return fail(err)
		}
		log.Info("wrote summary", "path", *jsonOut)
	}

	if *release != "" {
		rel, err := study.ReleaseNTP()
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*release, []byte(rel), 0o644); err != nil {
			return fail(err)
		}
		log.Info("wrote /48 release", "path", *release)
	}

	if *outdir != "" {
		if err := writeDatasets(*outdir, study, log); err != nil {
			return fail(err)
		}
	}
	return 0
}

// writeDatasets writes the three Table 1 datasets and the Hitlist's
// alias list, in the Hitlist service's textual format, into dir.
func writeDatasets(dir string, study *hitlist6.Study, log *slog.Logger) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		data io.WriterTo
	}{
		{"ntp.hl6", study.NTP},
		{"hitlist.hl6", study.Hitlist.Dataset},
		{"caida.hl6", study.CAIDA},
		{"aliased-prefixes.txt", study.Hitlist.Aliases},
	} {
		path := filepath.Join(dir, f.name)
		if err := writeFile(path, f.data); err != nil {
			return err
		}
		log.Info("wrote dataset", "path", path)
	}
	return nil
}

func writeFile(path string, data io.WriterTo) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := data.WriteTo(f); err != nil {
		//lint:durable best-effort cleanup; the write error being returned is the root cause
		f.Close()
		return err
	}
	// Close flushes; a dropped error here could report a truncated file
	// as written.
	return f.Close()
}
