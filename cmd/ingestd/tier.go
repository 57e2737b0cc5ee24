// The daemon's tiered-corpus surface (-corpus.rambudget): beside the
// durable checkpoint the daemon keeps a tier — the corpus's address
// records as fixed-size canonical chunks with per-chunk filters
// (internal/pager) — and serves point lookups off it at /probe with a
// bounded RAM budget, instead of holding a second full corpus for
// queries. The tier is a base file, corpus.tier, rewritten whole by a
// full checkpoint, plus one run, corpus.tier.NNNNNN, per delta
// checkpoint since, holding the records that delta carried. It is a
// probe index, rebuilt from the corpus whenever its files cannot be
// trusted; the checkpoint is the durable copy. /stats grows a tier
// block and the pager's gauges/counters land on /metrics.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/pager"
	"hitlist6/internal/telemetry"
)

// tierPhases are the consecutive phases of one tier refresh, the phase
// label of ingestd_tier_refresh_seconds: "order" runs until the first
// byte is written (the canonical sort and the directory — the pager's
// writers write nothing before they exist), "encode" streams the
// sections into the temp file's buffer, "sync" is flush, fsync, rename
// and directory fsync, "swap" opens the new file and puts it in front
// of the readers.
var tierPhases = [...]string{"order", "encode", "sync", "swap"}

// tierKinds are what one refresh writes, the kind label of
// ingestd_tier_refresh_seconds: a base rewrites the whole tier, a run
// adds the records of one delta checkpoint.
var tierKinds = [...]string{tierBase, tierRun}

const (
	tierBase = "base"
	tierRun  = "run"
)

// enableTier switches the tiered corpus on: the tier lives in dir beside
// the checkpoint. Its files are trusted at start-up only when they can
// be nothing but the restored corpus — a base that opens, no run beside
// it, and the base's observation total equal to the restored corpus's
// (records only grow, so two states of one corpus with one total are
// the same state). Anything else — no base, an older format version,
// damage, a base written before or after the restored checkpoint, runs
// a crash left — costs a rebuild from the restored corpus here, before
// the daemon reports ready, rather than /probe serving records older
// than the corpus or answering 503 until the first checkpoint. The
// runs are deleted either way. An empty store writes nothing.
func (d *daemon) enableTier(dir string, budget int64) {
	d.ramBudget = budget
	d.tierPath = tierPath(dir)
	d.pagerMet = pager.NewMetrics(d.reg)
	for k, kind := range tierKinds {
		for i, phase := range tierPhases {
			d.tierRefresh[k][i] = d.reg.Histogram("ingestd_tier_refresh_seconds",
				"Wall time of one tier refresh by kind (base, run) and phase: order, encode, sync, swap.",
				telemetry.DurationBuckets(), telemetry.L("kind", kind), telemetry.L("phase", phase))
		}
	}
	var total uint64
	var addrs int
	d.pipe.Store().View(func(c *collector.Collector) { total, addrs = c.TotalObservations(), c.NumAddrs() })

	runs := tierRunFiles(d.tierPath)
	base, err := d.openBase()
	if err == nil && len(runs) == 0 && base.TotalObservations() == total {
		d.installBase(base)
		d.tierAddrs.Store(int64(addrs))
		return
	}
	switch {
	case err == nil:
		base.Close() //lint:durable opened read-only to be discarded: Close has nothing to report
		d.log.Warn("tier files do not match the restored corpus; rewriting from the corpus",
			"path", d.tierPath, "runs", len(runs), "tier_observations", base.TotalObservations(), "corpus_observations", total)
	case !errors.Is(err, fs.ErrNotExist):
		d.log.Warn("stale tier file unreadable; rewriting from the corpus",
			"path", d.tierPath, "error", err)
	}
	removeTierRuns(runs)
	if addrs == 0 {
		return
	}
	phases, err := d.refreshTier(tierBase)
	if err != nil {
		d.log.Error("tier rebuild failed; /probe waits for the next checkpoint",
			"path", d.tierPath, "error", err)
		return
	}
	d.log.Info("tier rebuilt from the restored corpus", append([]any{"path", d.tierPath}, phases...)...)
}

// nextTierKind is what the tier refresh after the checkpoint just
// written is: a run when that checkpoint was a delta and the tier holds
// every checkpoint before it, otherwise a base. Callers hold ckptMu.
func (d *daemon) nextTierKind() string {
	if seq, _ := d.pipe.Store().CheckpointSeq(); !d.deltaMode || seq == 0 || d.tier == nil || d.tierStale {
		return tierBase
	}
	return tierRun
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

// refreshTier publishes the checkpoint just written to the tier:
// kind tierBase rewrites corpus.tier from the live corpus, trades the
// readers onto it and deletes every run; kind tierRun writes the records
// of the blocks the last delta carried as corpus.tier.NNNNNN (NNNNNN
// the delta's sequence number) and attaches it in front of the base and
// the runs before it — O(records the delta carried), and the base's
// resident chunks stay warm. Either file goes through AtomicWriteFile,
// outside tierMu: probes keep answering off the tier as it was until
// the new file is in place, and the store's read lock is held only
// while the records are copied (see encodeTier). A failure marks the
// tier stale, so the next checkpoint rewrites the base. Callers hold
// ckptMu, so a run always follows the checkpoint whose blocks it holds.
// It returns the phase durations as log attributes (tier_order_s, ...).
//
//lint:durable-path the tier file must survive a crash mid-rewrite
func (d *daemon) refreshTier(kind string) (phases []any, err error) {
	path, take, k := d.tierPath, (*collector.Collector).CopyRecords, 0
	if kind == tierRun {
		seq, _ := d.pipe.Store().CheckpointSeq()
		path, take, k = tierRunPath(d.tierPath, seq), (*collector.Collector).LastDeltaRecords, 1
	}
	defer func() {
		if err != nil {
			d.tierStale = true
		}
	}()
	start := time.Now()
	var first, encoded time.Time
	var addrs int
	if _, err = ingest.AtomicWriteFile(path, func(w io.Writer) error {
		sw := &stampWriter{Writer: w}
		var inner error
		addrs, inner = encodeTier(d.pipe.Store(), take, sw)
		first, encoded = sw.first, time.Now()
		return inner
	}); err != nil {
		return nil, err
	}
	synced := time.Now()
	if kind == tierRun {
		err = d.tier.AddRun(path)
	} else {
		var nc *pager.Corpus
		if nc, err = d.openBase(); err == nil {
			d.installBase(nc)
		}
	}
	if err != nil {
		return nil, err
	}
	d.tierAddrs.Store(int64(addrs))
	if kind == tierBase {
		d.tierStale = false
		removeTierRuns(tierRunFiles(d.tierPath))
	}
	for i, dur := range [...]time.Duration{first.Sub(start), encoded.Sub(first), synced.Sub(encoded), time.Since(synced)} {
		d.tierRefresh[k][i].ObserveDuration(dur)
		phases = append(phases, "tier_"+tierPhases[i]+"_s", dur.Seconds())
	}
	return phases, nil
}

// encodeTier writes to w the tier file of the records take copies out
// of the store's corpus and returns the corpus's address count. The
// read lock is held only for the copy: the sort and the encode run
// after it, so the ingest worker, and the socket reader behind it, never
// wait on a tier rewrite.
func encodeTier(store *collector.Store, take func(*collector.Collector) *collector.Records, w io.Writer) (addrs int, err error) {
	var recs *collector.Records
	store.View(func(c *collector.Collector) { addrs, recs = c.NumAddrs(), take(c) })
	return addrs, pager.WriteTier(recs, w)
}

// openBase opens the base file at the daemon's budget and metrics.
func (d *daemon) openBase() (*pager.Corpus, error) {
	return pager.Open(d.tierPath, pager.Options{RAMBudget: d.ramBudget, Metrics: d.pagerMet})
}

// installBase makes nc, a base without runs, the tier /probe reads.
// The write side of tierMu is held for the pointer trade alone:
// acquiring it waits out the in-flight reads of the old corpus, after
// which nobody can reach it and it is closed outside the lock. Callers
// hold ckptMu (or run before the daemon serves).
func (d *daemon) installBase(nc *pager.Corpus) {
	d.tierMu.Lock()
	old := d.tier
	d.tier = nc
	d.tierMu.Unlock()
	if old != nil {
		if cerr := old.Close(); cerr != nil {
			d.log.Warn("closing previous tier reader", "path", d.tierPath, "error", cerr)
		}
	}
}

// tierRunPath names the run carrying delta sequence seq.
func tierRunPath(base string, seq uint64) string {
	return fmt.Sprintf("%s.%06d", base, seq)
}

// tierRunFiles lists the run files beside base, and whatever squats on
// a run's name. Names whose suffix is no sequence number
// (AtomicWriteFile temp litter) are not runs.
func tierRunFiles(base string) []string {
	matches, _ := filepath.Glob(base + ".*")
	var runs []string
	for _, m := range matches {
		if seq, err := strconv.ParseUint(m[len(base)+1:], 10, 64); err == nil && seq > 0 {
			runs = append(runs, m)
		}
	}
	return runs
}

// removeTierRuns best-effort deletes run files. A run left behind by a
// failed removal is never trusted: a start-up that finds one rebuilds
// the tier, and a running daemon only reads the runs it wrote.
func removeTierRuns(runs []string) {
	for _, r := range runs {
		os.Remove(r)
	}
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
// -probe path: per file, runs newest first and then the base, a fence
// search and a bloom filter, and at most one chunk pread in the file
// that holds the address, never touching the live store or its locks.
// It holds the read side of tierMu for the lookup, so probes run beside
// each other, beside a tier rewrite and beside a run being attached;
// only the pointer trade in installBase excludes them.
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

// tierStatsReply is the /stats tier block. Chunks, residency and the
// filter counters cover the base and every run; addrs is the corpus's
// address count when the tier was last refreshed.
type tierStatsReply struct {
	Path          string `json:"path"`
	Budget        int64  `json:"budget_bytes"`
	Runs          int    `json:"runs"`
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
		Runs:          d.tier.NumRuns(),
		Chunks:        d.tier.NumChunks(),
		Resident:      d.tier.ResidentChunks(),
		ResidentBytes: d.tier.ResidentBytes(),
		Addrs:         int(d.tierAddrs.Load()),
		FilterProbes:  d.pagerMet.Probes.Value(),
		FilterSkips:   d.pagerMet.Skips.Value(),
		ChunkLoads:    d.pagerMet.Loads.Value(),
	}
}
