// The daemon's tiered-corpus surface (-corpus.rambudget): alongside
// each durable checkpoint the daemon writes a tier file — the corpus's
// address records as fixed-size canonical chunks with per-chunk filters
// (internal/pager) — and serves point lookups off it at /probe with a
// bounded RAM budget, instead of holding a second full corpus for
// queries. The tier is a probe index, rewritten from the corpus by
// every checkpoint and at start-up when it is missing or unreadable;
// the checkpoint is the durable copy. /stats grows a tier block and the
// pager's gauges/counters land on /metrics.
package main

import (
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/pager"
	"hitlist6/internal/telemetry"
)

// tierPhases are the consecutive phases of one tier refresh, the phase
// label of ingestd_tier_refresh_seconds: "order" runs until the first
// byte is written (the canonical sort and the directory —
// pager.WriteTier writes nothing before they exist), "encode" streams
// the sections into the temp file's buffer, "sync" is flush, fsync,
// rename and directory fsync, "swap" opens the new file and trades
// readers.
var tierPhases = [...]string{"order", "encode", "sync", "swap"}

// enableTier switches the tiered corpus on: the tier file lives in dir
// beside the checkpoint, and one left there by a previous run is opened
// so /probe serves immediately after a restart. When there is none, or
// it does not open (an older format version, damage), and a corpus was
// restored, the file is rebuilt from that corpus here — before the
// daemon reports ready — rather than leaving /probe at 503 until the
// first checkpoint. An empty store writes nothing.
func (d *daemon) enableTier(dir string, budget int64) {
	d.ramBudget = budget
	d.tierPath = tierPath(dir)
	d.pagerMet = pager.NewMetrics(d.reg)
	for i, phase := range tierPhases {
		d.tierRefresh[i] = d.reg.Histogram("ingestd_tier_refresh_seconds",
			"Wall time of one tier refresh by phase: order, encode, sync, swap.",
			telemetry.DurationBuckets(), telemetry.L("phase", phase))
	}
	err := d.swapTier()
	if err == nil {
		return
	}
	if !errors.Is(err, fs.ErrNotExist) {
		d.log.Warn("stale tier file unreadable; rewriting from the corpus",
			"path", d.tierPath, "error", err)
	}
	if d.pipe.Store().NumAddrs() == 0 {
		return
	}
	phases, err := d.refreshTier()
	if err != nil {
		d.log.Error("tier rebuild failed; /probe waits for the next checkpoint",
			"path", d.tierPath, "error", err)
		return
	}
	d.log.Info("tier rebuilt from the restored corpus", append([]any{"path", d.tierPath}, phases...)...)
}

// stampWriter notes when its first byte arrives.
type stampWriter struct {
	io.Writer
	first time.Time
}

func (s *stampWriter) Write(p []byte) (int, error) {
	if s.first.IsZero() {
		s.first = time.Now()
	}
	return s.Writer.Write(p)
}

// refreshTier rewrites the tier file from the live corpus (atomically,
// like every durable artifact) and swaps the daemon's pager onto the
// new file. The rewrite holds refreshMu — one refresh at a time — and
// the store's read lock while it encodes, but not tierMu: probes keep
// answering off the sealed old file until swapTier trades the pointer.
// It returns the phase durations as log attributes (tier_order_s, ...).
//
//lint:durable-path the tier file must survive a crash mid-rewrite
func (d *daemon) refreshTier() (phases []any, err error) {
	d.refreshMu.Lock()
	defer d.refreshMu.Unlock()
	start := time.Now()
	var first, encoded time.Time
	if _, err = ingest.AtomicWriteFile(d.tierPath, func(w io.Writer) error {
		sw := &stampWriter{Writer: w}
		var inner error
		d.pipe.Store().View(func(c *collector.Collector) {
			inner = pager.WriteTier(c, sw)
		})
		first, encoded = sw.first, time.Now()
		return inner
	}); err != nil {
		return nil, err
	}
	synced := time.Now()
	if err = d.swapTier(); err != nil {
		return nil, err
	}
	for i, dur := range [...]time.Duration{first.Sub(start), encoded.Sub(first), synced.Sub(encoded), time.Since(synced)} {
		d.tierRefresh[i].ObserveDuration(dur)
		phases = append(phases, "tier_"+tierPhases[i]+"_s", dur.Seconds())
	}
	return phases, nil
}

// swapTier opens the tier file and makes it the one /probe reads. The
// write side of tierMu is held for the pointer trade alone: acquiring
// it waits out the in-flight reads of the old file, after which nobody
// can reach it and it is closed outside the lock. Callers hold
// refreshMu (or run before the daemon serves).
func (d *daemon) swapTier() error {
	nc, err := pager.Open(d.tierPath, pager.Options{
		RAMBudget: d.ramBudget,
		Metrics:   d.pagerMet,
	})
	if err != nil {
		return err
	}
	d.tierMu.Lock()
	old := d.tier
	d.tier = nc
	d.tierMu.Unlock()
	if old != nil {
		if cerr := old.Close(); cerr != nil {
			d.log.Warn("closing previous tier reader", "path", d.tierPath, "error", cerr)
		}
	}
	return nil
}

// probeReply is the /probe JSON shape.
type probeReply struct {
	Addr    string `json:"addr"`
	Found   bool   `json:"found"`
	First   int64  `json:"first,omitempty"`
	Last    int64  `json:"last,omitempty"`
	Count   uint32 `json:"count,omitempty"`
	Servers uint32 `json:"servers,omitempty"`
}

// handleProbe serves point lookups off the tiered corpus — the cold
// -probe path: fence search, bloom filter, and at most one chunk pread,
// never touching the live store or its locks. It holds the read side of
// tierMu for the lookup, so probes run beside each other and beside a
// tier rewrite; only the pointer trade in swapTier excludes them.
func (d *daemon) handleProbe(w http.ResponseWriter, r *http.Request) {
	if d.tierPath == "" {
		http.Error(w, "tiered corpus disabled (-corpus.rambudget 0)", http.StatusNotFound)
		return
	}
	a, err := addr.Parse(r.URL.Query().Get("addr"))
	if err != nil {
		http.Error(w, "probe needs ?addr=<ipv6>: "+err.Error(), http.StatusBadRequest)
		return
	}
	d.tierMu.RLock()
	defer d.tierMu.RUnlock()
	if d.tier == nil {
		http.Error(w, "tier not yet written (POST /snapshot)", http.StatusServiceUnavailable)
		return
	}
	rec, ok, err := d.tier.Get(a)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	reply := probeReply{Addr: a.String(), Found: ok}
	if ok {
		reply.First, reply.Last = rec.First, rec.Last
		reply.Count, reply.Servers = rec.Count, rec.Servers
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(reply); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// tierStatsReply is the /stats tier block.
type tierStatsReply struct {
	Path          string `json:"path"`
	Budget        int64  `json:"budget_bytes"`
	Chunks        int    `json:"chunks"`
	Resident      int    `json:"resident_chunks"`
	ResidentBytes int64  `json:"resident_bytes"`
	Addrs         int    `json:"addrs"`
	FilterProbes  uint64 `json:"filter_probes"`
	FilterSkips   uint64 `json:"filter_skips"`
	ChunkLoads    uint64 `json:"chunk_loads"`
}

// tierStats snapshots the tier block for /stats; nil when the tiered
// corpus is disabled or not yet written.
func (d *daemon) tierStats() *tierStatsReply {
	if d.tierPath == "" {
		return nil
	}
	d.tierMu.RLock()
	defer d.tierMu.RUnlock()
	if d.tier == nil {
		return nil
	}
	return &tierStatsReply{
		Path:          d.tierPath,
		Budget:        d.ramBudget,
		Chunks:        d.tier.NumChunks(),
		Resident:      d.tier.ResidentChunks(),
		ResidentBytes: d.tier.ResidentBytes(),
		Addrs:         d.tier.NumAddrs(),
		FilterProbes:  d.pagerMet.Probes.Value(),
		FilterSkips:   d.pagerMet.Skips.Value(),
		ChunkLoads:    d.pagerMet.Loads.Value(),
	}
}
