// Command ingestd runs the sharded ingest pipeline as a daemon: it
// consumes an NTP query-event stream — a file (or stdin), a UDP socket,
// or a simulated replay — fans it out across shard workers that fold
// each batch into the one live corpus (the per-AS outage series the one
// inline enrichment), and serves live summaries over HTTP, read from
// that corpus. It is the single-vantage deployment shape of the paper's
// 27-server passive collection: one ingestd per pool server.
//
// The outage detector is the paper's headline hitlist application run
// live: the same single pass that builds the corpus feeds a per-AS
// time-binned series, and a periodic detector scans its rolling window
// for ASes that went dark — served at /outages, no probes sent.
//
// Event lines are `<unix-seconds> <ipv6-address> [<server-index>]`, the
// seconds in the corpus's time domain [0, 4294967295] (1970-01-01 to
// 2106-02-07 UTC): a line outside it is malformed, counted in
// ingestd_malformed_lines and dropped, never stored wrapped.
//
// Usage:
//
//	ingestd -file events.log            # replay a file, then keep serving
//	ingestd -file -                     # read stdin
//	ingestd -udp :9123                  # ingest datagrams of event lines
//	ingestd -sim -sim.scale 0.1         # generate a simnet replay stream
//
// HTTP surface (default :8629):
//
//	/stats          live pipeline and corpus summary (JSON)
//	/outages        latest outage-detector scan (JSON)
//	/snapshot       POST: write a durable corpus checkpoint now
//	/metrics        Prometheus text exposition of every registered series
//	/healthz        liveness: 200 while the process runs
//	/readyz         readiness: 200 once restore finished and the pipeline
//	                accepts events; 503 while starting or shutting down
//	/debug/events   bounded ring of recent operational events (JSON)
//	/debug/pprof/   CPU, heap, goroutine and trace profiles
//
// Logs are structured (slog): -log.format selects text or json,
// -log.level the threshold. Every log record is also captured in the
// /debug/events ring. SIGINT/SIGTERM shut down gracefully: sources
// stop, in-flight events drain, a final checkpoint is written when
// -snapshot.dir is set, and the HTTP listener closes cleanly.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/analysis"
	"hitlist6/internal/asdb"
	"hitlist6/internal/cardinality"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/ntppool"
	"hitlist6/internal/outage"
	"hitlist6/internal/pager"
	"hitlist6/internal/simnet"
	"hitlist6/internal/telemetry"
)

// daemon ties the pipeline to its operational surface: the HTTP
// handlers, the health gate, the structured log (mirrored into the
// events ring) and the shutdown sequence. main builds exactly one;
// tests build throwaway ones around in-memory pipelines.
type daemon struct {
	pipe   *ingest.Pipeline
	reg    *telemetry.Registry
	health *telemetry.Health
	ring   *telemetry.EventRing
	log    *slog.Logger

	routes    *asdb.DB   // nil: outage detection disabled
	udp       *udpSource // nil: not ingesting from a socket
	outWindow int
	snapPath  string // "": durable snapshots disabled
	deltaMode bool   // -snapshot.delta: checkpoints run the chain protocol

	// ckptMu admits one checkpointNow at a time, across the checkpoint
	// and the tier refresh that publishes it, so a tier run always holds
	// the blocks of the delta just written. It is taken before tierMu,
	// never while holding it, and guards tierStale.
	ckptMu sync.Mutex

	// Tiered corpus (-corpus.rambudget; see tier.go). tierMu guards the
	// tier pointer, not the corpus behind it (pager.Corpus serializes
	// itself and attaches runs under concurrent reads): /probe and /stats
	// read through it on the read side, and only installBase takes the
	// write side, for the pointer trade alone.
	ramBudget   int64  // 0: tiering disabled
	tierPath    string // "": tiering disabled
	pagerMet    *pager.Metrics
	tierRefresh [len(tierKinds)][len(tierPhases)]*telemetry.Histogram
	tierStale   bool         // a tier refresh failed: the next one rewrites the base
	tierAddrs   atomic.Int64 // the corpus's address count at the last tier refresh
	tierMu      sync.RWMutex
	tier        *pager.Corpus // nil until the first tier file exists

	badLines      atomic.Uint64
	latestOutages atomic.Pointer[outagesReply]
	tally         corpusTally

	// stopSource interrupts the active event source (close the UDP
	// socket, close the replay file); nil when the source cannot be
	// interrupted (sim replay, stdin). sourceDone closes when the source
	// goroutine exits.
	stopSource func()
	sourceDone chan struct{}

	// stopTicker halts the -snapshot.every ticker and returns once its
	// goroutine has exited, so no periodic checkpoint is in flight or can
	// start afterwards; nil when there is no ticker. shutdown calls it.
	stopTicker func()
}

// newMux wires the daemon's full HTTP surface (see the package comment
// for the endpoint map).
func (d *daemon) newMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", d.handleStats)
	mux.HandleFunc("/outages", d.handleOutages)
	mux.HandleFunc("/snapshot", d.handleSnapshot)
	mux.HandleFunc("/probe", d.handleProbe)
	mux.Handle("/metrics", d.reg.Handler())
	mux.Handle("/healthz", d.health.LivenessHandler())
	mux.Handle("/readyz", d.health.ReadinessHandler())
	mux.Handle("/debug/events", d.ring)
	// net/http/pprof registers on DefaultServeMux at import; this mux is
	// private, so route the profile handlers explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (d *daemon) handleStats(w http.ResponseWriter, _ *http.Request) {
	reply := d.buildStats()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(reply); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (d *daemon) handleOutages(w http.ResponseWriter, _ *http.Request) {
	if d.routes == nil {
		http.Error(w, "outage detection disabled (-outage.bin 0)", http.StatusNotFound)
		return
	}
	reply := d.latestOutages.Load()
	if reply == nil {
		// Nothing detected yet (first tick pending): scan on demand so
		// the endpoint is never stale-empty.
		reply = detectOutages(d.pipe, d.outWindow)
		d.latestOutages.Store(reply)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(reply); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (d *daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if d.snapPath == "" {
		http.Error(w, "snapshots disabled (no -snapshot.dir)", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST triggers a snapshot", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	size, err := d.checkpointNow()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(snapshotReply{
		Path:   d.snapPath,
		Bytes:  size,
		Millis: time.Since(start).Milliseconds(),
	}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// checkpointNow is the daemon's one checkpoint driver — POST /snapshot,
// the -snapshot.every ticker and shutdown all call it. It writes one
// durable checkpoint through whichever protocol the daemon runs — the
// delta chain under -snapshot.delta, otherwise a plain full snapshot —
// and, when the tiered corpus is enabled, publishes it to the tier: a
// run for a delta, a base rewrite otherwise (refreshTier), logging the
// outcome either way. A tier refresh failure is logged but does not
// fail the checkpoint: the durable corpus is the artifact that matters;
// the tier is a rebuildable query index. One checkpointNow runs at a
// time (ckptMu).
func (d *daemon) checkpointNow() (size int64, err error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.deltaMode {
		size, err = d.pipe.CheckpointChain(d.snapPath)
	} else {
		size, err = d.pipe.CheckpointFile(d.snapPath)
	}
	if err != nil {
		d.log.Error("snapshot failed", "path", d.snapPath, "error", err)
		return 0, err
	}
	attrs := []any{"path", d.snapPath, "bytes", size}
	if d.tierPath != "" {
		kind := d.nextTierKind()
		phases, terr := d.refreshTier(kind)
		if terr != nil {
			d.log.Error("tier refresh failed; the next checkpoint rewrites the base",
				"path", d.tierPath, "kind", kind, "error", terr)
		}
		attrs = append(append(attrs, "kind", kind), phases...)
	}
	d.log.Info("snapshot written", attrs...)
	return size, nil
}

// startCheckpointTicker runs checkpointNow every interval
// (-snapshot.every) until d.stopTicker is called. A failed attempt is
// logged and counted by checkpointNow and retried at the next tick.
func (d *daemon) startCheckpointTicker(every time.Duration) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				_, _ = d.checkpointNow() // already logged and counted; the next tick retries
			case <-stop:
				return
			}
		}
	}()
	d.stopTicker = func() { close(stop); <-done }
}

// shutdown drains the daemon in dependency order: flip readiness off
// (load balancers stop routing), stop the event source and wait for it
// when it is interruptible, stop the checkpoint ticker and wait out a
// periodic checkpoint in flight, fence in-flight events with a quiesce,
// write the final durable checkpoint — everything since the last
// periodic tick would otherwise be lost to a clean exit — and close the
// HTTP listener. srv may be nil (tests exercising the drain alone).
func (d *daemon) shutdown(srv *http.Server) {
	d.health.SetNotReady("shutting down")
	if d.stopSource != nil {
		d.stopSource()
		select {
		case <-d.sourceDone:
		case <-time.After(10 * time.Second):
			d.log.Warn("event source did not stop; checkpointing anyway")
		}
	}
	if d.stopTicker != nil {
		d.stopTicker()
	}
	d.pipe.Quiesce()
	if d.snapPath != "" {
		_, _ = d.checkpointNow() // already logged and counted; there is no later attempt
	}
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			d.log.Warn("http shutdown", "error", err)
		}
	}
	m := d.pipe.Metrics()
	d.log.Info("ingestd exiting",
		"processed", m.Processed, "dropped", m.Dropped,
		"malformed", d.badLines.Load(),
		"unique_addrs", d.pipe.Store().NumAddrs(),
		"corpus_mb", fmt.Sprintf("%.1f", float64(m.CorpusBytes)/(1<<20)))
}

func main() {
	var (
		listen      = flag.String("listen", ":8629", "HTTP listen address")
		file        = flag.String("file", "", "event file to replay ('-' for stdin)")
		udp         = flag.String("udp", "", "UDP listen address for event datagrams")
		sim         = flag.Bool("sim", false, "generate a simnet replay stream instead of external input")
		simScale    = flag.Float64("sim.scale", 0.1, "simnet population scale")
		simDays     = flag.Int("sim.days", 30, "simnet study window in days")
		simSeed     = flag.Int64("sim.seed", 1, "simnet world seed")
		shards      = flag.Int("shards", 0, "collector shards (0 = one per CPU, capped at 8)")
		batch       = flag.Int("batch", 0, "events per batch (0 = default)")
		queue       = flag.Int("queue", 0, "per-shard queue depth in batches (0 = default)")
		drop        = flag.Bool("drop", false, "shed events when a shard queue is full instead of blocking")
		snapshot    = flag.Duration("snapshot", 2*time.Second, "how often shard workers merge their outage series into the one /outages reads (the corpus needs no snapshot)")
		serverCp    = flag.Int("servers", collector.MaxServers, "vantage-server attribution cap")
		outBin      = flag.Duration("outage.bin", time.Hour, "outage series bin width (whole seconds; 0 disables the outage consumer)")
		outEvery    = flag.Duration("outage.every", 30*time.Second, "how often the live outage detector rescans the series")
		outWindow   = flag.Int("outage.window", 0, "rolling detection window in complete bins (0 = whole series)")
		snapDir     = flag.String("snapshot.dir", "", "directory for durable corpus snapshots (restore on start, checkpoint while running)")
		snapEvery   = flag.Duration("snapshot.every", 0, "how often to checkpoint the corpus into -snapshot.dir (0 = only on /snapshot)")
		snapDelta   = flag.Bool("snapshot.delta", false, "checkpoint via the delta chain: full base plus per-checkpoint deltas of dirtied blocks")
		snapCompact = flag.Int("snapshot.compact", 0, "fold the delta chain into a fresh full base every N deltas (0 = default)")
		ramBudget   = flag.Int64("corpus.rambudget", 0, "tiered-corpus RAM budget in bytes for /probe chunk residency (0 disables tiering)")
		logLevel    = flag.String("log.level", "info", "log threshold: debug, info, warn or error")
		logFormat   = flag.String("log.format", "text", "log encoding: text or json")
		eventsCap   = flag.Int("debug.events", telemetry.DefaultEventRingSize, "recent-events ring capacity for /debug/events")
	)
	flag.Parse()

	ring := telemetry.NewEventRing(*eventsCap)
	logger, err := telemetry.NewLogger(telemetry.LogOptions{
		Level: *logLevel, Format: *logFormat, Ring: ring,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ingestd:", err)
		os.Exit(2)
	}

	sources := 0
	for _, on := range []bool{*file != "", *udp != "", *sim} {
		if on {
			sources++
		}
	}
	if sources != 1 {
		fmt.Fprintln(os.Stderr, "ingestd: exactly one of -file, -udp, -sim required")
		flag.Usage()
		os.Exit(2)
	}
	if *outBin < 0 || *outBin%time.Second != 0 {
		fmt.Fprintf(os.Stderr, "ingestd: -outage.bin %v must be a non-negative whole number of seconds\n", *outBin)
		os.Exit(2)
	}
	if *outBin > 0 && *outEvery <= 0 {
		fmt.Fprintf(os.Stderr, "ingestd: -outage.every %v must be positive\n", *outEvery)
		os.Exit(2)
	}
	if *snapEvery < 0 {
		fmt.Fprintf(os.Stderr, "ingestd: -snapshot.every %v must be non-negative\n", *snapEvery)
		os.Exit(2)
	}
	if *snapEvery > 0 && *snapDir == "" {
		fmt.Fprintln(os.Stderr, "ingestd: -snapshot.every needs -snapshot.dir")
		os.Exit(2)
	}
	if (*snapDelta || *snapCompact != 0) && *snapDir == "" {
		fmt.Fprintln(os.Stderr, "ingestd: -snapshot.delta needs -snapshot.dir")
		os.Exit(2)
	}
	if *snapCompact < 0 {
		fmt.Fprintf(os.Stderr, "ingestd: -snapshot.compact %d must be non-negative\n", *snapCompact)
		os.Exit(2)
	}
	if *ramBudget < 0 {
		fmt.Fprintf(os.Stderr, "ingestd: -corpus.rambudget %d must be non-negative\n", *ramBudget)
		os.Exit(2)
	}
	if *ramBudget > 0 && *snapDir == "" {
		fmt.Fprintln(os.Stderr, "ingestd: -corpus.rambudget needs -snapshot.dir")
		os.Exit(2)
	}

	// The outage consumer needs a routing table to attribute events to
	// ASes. BuildASDB yields the same table a full world build would
	// (attribution-identical; see simnet.BuildASDB), without blocking
	// daemon startup on world construction — the sim replay builds its
	// world later, on the replay goroutine.
	var routes *asdb.DB
	if *outBin > 0 {
		db, err := simnet.BuildASDB(simnet.DefaultConfig(*simSeed, 1))
		if err != nil {
			logger.Error("routing table", "error", err)
			os.Exit(1)
		}
		routes = db
	}

	// The registry exists before the pipeline so startup work (the
	// checkpoint restore) is already on the record when /metrics comes up.
	reg := telemetry.NewRegistry()
	health := telemetry.NewHealth()

	cfg := ingest.Config{
		Shards:           *shards,
		BatchSize:        *batch,
		QueueDepth:       *queue,
		DropOnFull:       *drop,
		SnapshotInterval: *snapshot,
		ServerCap:        *serverCp,
		Registry:         reg,
		Stages:           daemonStages(routes, *outBin),
	}
	snapPath := ""
	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			logger.Error("snapshot dir", "error", err)
			os.Exit(1)
		}
		snapPath = snapshotPath(*snapDir)
		restoreSeconds := reg.Histogram("ingestd_restore_seconds",
			"Wall time restoring the corpus checkpoint at startup.",
			telemetry.DurationBuckets())
		start := time.Now()
		cfg.Seed = restoreOrEmpty(snapPath, func(format string, args ...any) {
			msg := fmt.Sprintf(format, args...)
			if strings.Contains(msg, "WARNING") {
				logger.Warn(msg)
			} else {
				logger.Info(msg)
			}
		})
		restoreSeconds.ObserveDuration(time.Since(start))
		cfg.CompactEvery = *snapCompact
	}
	pipe, err := ingest.New(cfg)
	if err != nil {
		logger.Error("pipeline", "error", err)
		os.Exit(1)
	}

	d := &daemon{
		pipe: pipe, reg: reg, health: health, ring: ring, log: logger,
		routes: routes, outWindow: *outWindow, snapPath: snapPath,
		deltaMode: *snapDelta,
	}
	if *ramBudget > 0 {
		d.enableTier(*snapDir, *ramBudget)
		logger.Info("tiered corpus enabled",
			"path", d.tierPath, "budget_bytes", d.ramBudget)
	}
	if *snapEvery > 0 {
		d.startCheckpointTicker(*snapEvery)
	}
	reg.GaugeFunc("ingestd_malformed_lines",
		"Input lines that failed to parse since start.",
		func() float64 { return float64(d.badLines.Load()) })

	httpLn, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listen", "error", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: d.newMux()}
	go func() {
		if err := srv.Serve(httpLn); err != nil && err != http.ErrServerClosed {
			logger.Error("http", "error", err)
		}
	}()
	logger.Info("serving", "addr", httpLn.Addr().String(), "shards", pipe.NumShards())

	if routes != nil {
		go func() {
			t := time.NewTicker(*outEvery)
			defer t.Stop()
			for range t.C {
				d.latestOutages.Store(detectOutages(pipe, *outWindow))
			}
		}()
		logger.Info("outage detector live", "bin", outBin.String(), "rescan", outEvery.String())
	}

	switch {
	case *file != "":
		in := os.Stdin
		if *file != "-" {
			f, err := os.Open(*file)
			if err != nil {
				logger.Error("open", "error", err)
				os.Exit(1)
			}
			// Closing the file mid-replay errors the scanner: that is the
			// interrupt path a graceful shutdown uses.
			d.stopSource = func() { f.Close() }
			in = f
		}
		d.sourceDone = make(chan struct{})
		go func() {
			defer close(d.sourceDone)
			if err := ingestStream(pipe, in, &d.badLines); err != nil {
				logger.Error("file replay", "error", err)
				return
			}
			logger.Info("stream done; still serving",
				"malformed", d.badLines.Load())
		}()
	case *sim:
		// The sim replay is not interruptible (no stopSource): shutdown
		// quiesces and checkpoints around it without waiting.
		go func() {
			n := simReplay(pipe, logger, *simSeed, *simScale, *simDays)
			pipe.Quiesce()
			logger.Info("sim replay done; still serving", "events", n)
		}()
	case *udp != "":
		conn, err := net.ListenPacket("udp", *udp)
		if err != nil {
			logger.Error("udp listen", "error", err)
			os.Exit(1)
		}
		d.udp = newUDPSource(reg)
		r := newDatagramReader(conn)
		logger.Info("ingesting event datagrams",
			"addr", conn.LocalAddr().String(), "batched", r.batched())
		d.stopSource = func() { conn.Close() }
		d.sourceDone = make(chan struct{})
		go func() {
			defer close(d.sourceDone)
			ingestUDP(pipe, conn, r, &d.badLines, logger, d.udp)
		}()
	}
	health.SetReady()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	logger.Info("shutting down", "signal", s.String())
	d.shutdown(srv)
}

// daemonStages is the daemon's whole stage set: the live outage series,
// which bins by the event's time, when detection is on (routes != nil).
// Everything else the daemon reports is read from the corpus.
func daemonStages(routes *asdb.DB, bin time.Duration) []ingest.StageFactory {
	if routes == nil {
		return nil
	}
	return []ingest.StageFactory{ingest.OutageSeriesLive(routes, bin)}
}

// snapshotPath is where the durable corpus lives inside -snapshot.dir.
func snapshotPath(dir string) string {
	return filepath.Join(dir, "corpus.snap")
}

// tierPath is where the tiered corpus's base file lives, next to the
// checkpoint it is derived from; its runs sit beside it (tierRunPath).
func tierPath(dir string) string {
	return filepath.Join(dir, "corpus.tier")
}

// restoreOrEmpty loads the corpus checkpoint for daemon startup: the
// base file and whatever delta chain sits next to it, however this run
// will write (-snapshot.delta chooses the checkpoint protocol, not what
// is on disk). A daemon must come up even when its checkpoint is
// damaged — losing the corpus and re-accumulating beats refusing to
// collect — so missing files start empty silently and unreadable/corrupt
// files start empty with a logged warning.
func restoreOrEmpty(path string, logf func(format string, args ...any)) *collector.Collector {
	c, superseded, err := ingest.RestoreNewest(path)
	if err != nil {
		logf("ingestd: WARNING: checkpoint %s unusable, starting with an empty corpus: %v", path, err)
		return nil
	}
	if len(superseded) > 0 {
		logf("ingestd: WARNING: removed %d delta files of a superseded chain (a checkpoint was interrupted): %s",
			len(superseded), strings.Join(superseded, " "))
	}
	if c == nil {
		return nil
	}
	logf("ingestd: restored %d addresses (%d observations) from %s",
		c.NumAddrs(), c.TotalObservations(), path)
	return c
}

// snapshotReply is the /snapshot JSON shape.
type snapshotReply struct {
	Path   string `json:"path"`
	Bytes  int64  `json:"bytes"`
	Millis int64  `json:"millis"`
}

// statsReply is the /stats JSON shape.
type statsReply struct {
	Shards       int                    `json:"shards"`
	Metrics      ingest.MetricsSnapshot `json:"metrics"`
	UDP          *udpStatsReply         `json:"udp,omitempty"`
	Tier         *tierStatsReply        `json:"tier,omitempty"`
	UniqueAddrs  int                    `json:"unique_addrs"`
	UniqueIIDs   int                    `json:"unique_iids"`
	Observations uint64                 `json:"observations"`
	HLLEstimate  float64                `json:"hll_estimate"`
	Categories   map[string]uint64      `json:"categories"`
}

// buildStats assembles one /stats reply. One View, one lock hold: the
// counters are read and the tally brought up to the same corpus inside
// it, so no batch lands between them and the reply describes a
// corpus that existed — its categories sum to its unique_addrs.
func (d *daemon) buildStats() statsReply {
	reply := statsReply{
		Shards:     d.pipe.NumShards(),
		Metrics:    d.pipe.Metrics(),
		UDP:        d.udp.statsReply(),
		Tier:       d.tierStats(),
		Categories: make(map[string]uint64),
	}
	var cats [addr.NumCategories]uint64
	d.pipe.Store().View(func(c *collector.Collector) {
		reply.UniqueAddrs, reply.Observations = c.NumAddrs(), c.TotalObservations()
		cats, reply.UniqueIIDs, reply.HLLEstimate = d.tally.fold(c)
	})
	for c, n := range cats {
		if n > 0 {
			reply.Categories[addr.Category(c).String()] = n
		}
	}
	return reply
}

// corpusTally is what /stats reports of the corpus beyond the Store's
// own counters — addresses per Figure-5 structural category, the exact
// distinct-IID count and the HyperLogLog sketch of the address set — as
// a fold over the address slab that resumes where it stopped. All three
// are functions of the set of addresses and the slab only appends, so a
// reply folds the addresses new since the last: none, or once after a
// restart the restored slab.
type corpusTally struct {
	mu     sync.Mutex
	folded int // slab positions [0, folded) are in sketch, cats and iids
	sketch *cardinality.HLL
	cats   [addr.NumCategories]uint64
	iids   collector.IIDSet
}

// fold brings the tally up to c and returns the category counts, the
// distinct-IID count and the sketch's estimate. It runs inside the
// Store.View whose counters the reply carries. A store holding fewer
// addresses than were folded is another corpus (Store.Detach): the
// tally starts over.
func (t *corpusTally) fold(c *collector.Collector) ([addr.NumCategories]uint64, int, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := c.NumAddrs()
	if n < t.folded {
		t.folded, t.sketch, t.cats, t.iids = 0, nil, [addr.NumCategories]uint64{}, collector.IIDSet{}
	}
	t.sketch = analysis.AddressSketch(t.sketch, c, t.folded, n, 1)
	c.AddrsRange(t.folded, n, func(a addr.Addr, _ collector.AddrRecord) bool {
		t.cats[a.IID().StructuralCategory()]++
		return true
	})
	t.iids.AddRange(c, t.folded, n)
	t.folded = n
	return t.cats, t.iids.Len(), t.sketch.Estimate()
}

// outagesReply is the /outages JSON shape.
type outagesReply struct {
	UpdatedUnix  int64              `json:"updated_unix"`
	Bin          string             `json:"bin"`
	Bins         int                `json:"bins"`
	CompleteBins int                `json:"complete_bins"`
	WindowBins   int                `json:"window_bins,omitempty"`
	ASes         int                `json:"ases"`
	Events       []outageEventReply `json:"events"`
}

// outageEventReply is one detected outage in /outages.
type outageEventReply struct {
	ASN          asdb.ASN  `json:"asn"`
	From         time.Time `json:"from"`
	To           time.Time `json:"to"`
	DarkBins     int       `json:"dark_bins"`
	MedianVolume float64   `json:"median_volume"`
	Summary      string    `json:"summary"`
}

// detectOutages scans the live outage series' rolling window. The stage
// view hands out a deep-copied series, so detection runs entirely off
// the merge lock.
func detectOutages(pipe *ingest.Pipeline, windowBins int) *outagesReply {
	var series *outage.Series
	pipe.StageView(func(stages []ingest.Stage) {
		for _, st := range stages {
			if s, ok := st.(*ingest.OutageSeriesStage); ok {
				series = s.Series()
			}
		}
	})
	reply := &outagesReply{
		UpdatedUnix: time.Now().Unix(),
		WindowBins:  windowBins,
		Events:      []outageEventReply{},
	}
	if series == nil {
		return reply
	}
	series = series.Tail(windowBins)
	reply.Bin = series.Bin.String()
	reply.Bins = series.Bins
	reply.CompleteBins = series.Complete
	reply.ASes = len(series.ByAS)
	for _, e := range outage.Detect(series, outage.DefaultConfig()) {
		reply.Events = append(reply.Events, outageEventReply{
			ASN:          e.ASN,
			From:         e.From,
			To:           e.To,
			DarkBins:     e.DarkBins,
			MedianVolume: e.MedianVolume,
			Summary:      e.String(),
		})
	}
	return reply
}

// ingestStream replays newline-framed event lines from in until EOF (or
// a read error — which is also how a graceful shutdown interrupts a
// file replay, by closing the underlying file). It reads in 64 KiB
// stretches and hands ingestDatagram the whole lines of each; a line
// that does not fit in one is malformed, counted once and skipped
// through its newline, and the replay carries on behind it.
func ingestStream(pipe *ingest.Pipeline, in io.Reader, badLines *atomic.Uint64) error {
	b := pipe.NewBatcher()
	buf := make([]byte, 1<<16)
	held := 0         // bytes of an unfinished line at the front of buf
	overlong := false // inside a line that overflowed buf: drop to its newline
	var err error
	for err == nil {
		var n int
		n, err = in.Read(buf[held:])
		data := buf[:held+n]
		if overlong {
			nl := bytes.IndexByte(data, '\n')
			if nl < 0 {
				held = 0
				continue
			}
			data, overlong = data[nl+1:], false
		}
		whole := bytes.LastIndexByte(data, '\n') + 1
		if err != nil {
			whole = len(data) // the stream's last line needs no newline
		}
		ingestDatagram(b, data[:whole], badLines)
		if held = copy(buf, data[whole:]); held == len(buf) {
			badLines.Add(1)
			held, overlong = 0, true
		}
	}
	b.Flush()
	pipe.Quiesce()
	if err == io.EOF {
		return nil
	}
	return err
}

// ingestDatagram feeds the batcher every event line of one UDP payload
// (or one stretch of a file) and returns how many it added. The decoder
// walks the bytes in place, one pass, line after line; blank lines,
// surrounding whitespace (including the \r of CRLF framing) and
// # comments are benign, only genuinely malformed lines count as bad.
func ingestDatagram(b *ingest.Batcher, buf []byte, badLines *atomic.Uint64) int {
	added := 0
	for len(buf) > 0 {
		ev, n, err := ingest.DecodeLine(buf)
		buf = buf[n:]
		switch err {
		case nil:
			b.Add(ev)
			added++
		case ingest.ErrNoEvent:
		default:
			badLines.Add(1)
		}
	}
	return added
}

// simReplay builds a simulated world and streams its NTP queries
// through the paper's pool selection into the pipeline, as a
// self-contained demo and load generator.
func simReplay(pipe *ingest.Pipeline, log *slog.Logger, seed int64, scale float64, days int) uint64 {
	wcfg := simnet.DefaultConfig(seed, scale)
	wcfg.Days = days
	w, err := simnet.Build(wcfg)
	if err != nil {
		log.Error("sim build", "error", err)
		return 0
	}
	pool, err := ntppool.New(ntppool.StudyVantages())
	if err != nil {
		log.Error("sim pool", "error", err)
		return 0
	}
	stats := ntppool.RunIngest(w, pool, pipe, nil)
	return stats.Queries
}
