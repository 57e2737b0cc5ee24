package ingest

import (
	"time"

	"hitlist6/internal/telemetry"
)

// Metrics is the pipeline's counter block, now a set of handles into a
// telemetry.Registry: producers and the worker update lock-free
// atomics exactly as before, while the same state renders as
// Prometheus series on /metrics and as the JSON MetricsSnapshot on
// /stats — one source of truth, two views.
type Metrics struct {
	enqueued  *telemetry.Counter // events admitted into the queue
	dropped   *telemetry.Counter // events shed at admission (DropOnFull)
	processed *telemetry.Counter // events folded into the store and the stages
	batches   *telemetry.Counter // batches handed to the queue
	// Durable-checkpoint telemetry (CheckpointFile and CheckpointChain).
	checkpoints         *telemetry.Counter
	deltaCheckpoints    *telemetry.Counter
	checkpointErrors    *telemetry.Counter
	lastCheckpointUnix  *telemetry.Gauge
	lastCheckpointBytes *telemetry.Gauge
	start               time.Time
	recent              telemetry.RateWindow
}

// pipelineTelemetry is the per-batch/per-stage instrumentation beyond
// the counter block: latency and size distributions, queue gauges, and
// the checkpoint timings. The hot-path pieces are gated by enabled so
// BenchmarkTelemetryOverhead can measure the uninstrumented observe
// loop as its baseline; production pipelines always run enabled.
type pipelineTelemetry struct {
	enabled        bool
	batchSeconds   *telemetry.Histogram // observe-loop wall time per batch
	queueHighWater *telemetry.Gauge     // deepest queue seen, in batches
	// Per stage, in Config.Stages order.
	stageSeconds []*telemetry.Histogram
	// Global distributions.
	batchEvents      *telemetry.Histogram // events per batch
	checkpointTime   *telemetry.Histogram // checkpoint wall time, either protocol
	checkpointVolume *telemetry.Histogram // checkpoint bytes written, either protocol
}

// initTelemetry registers the pipeline's metric families in reg and
// wires the counter block. Called once from New, after the store and
// queue exist. Registration is idempotent per series (see
// telemetry.Registry), so a daemon that rebuilds its pipeline keeps
// accumulating into the same counters and its scrape-time gauges
// re-bind to the live queue.
func (p *Pipeline) initTelemetry(reg *telemetry.Registry) {
	m := &p.metrics
	m.enqueued = reg.Counter("ingest_events_enqueued_total", "Events admitted into the queue.")
	m.dropped = reg.Counter("ingest_events_dropped_total", "Events shed at admission (DropOnFull).")
	m.processed = reg.Counter("ingest_events_processed_total", "Events folded into the store and the stages.")
	m.batches = reg.Counter("ingest_batches_total", "Batches handed to the queue.")
	m.checkpoints = reg.Counter("ingest_checkpoints_total", "Durable corpus checkpoints written.")
	m.deltaCheckpoints = reg.Counter("ingest_delta_checkpoints_total", "Checkpoints written as chain deltas (subset of the total).")
	m.checkpointErrors = reg.Counter("ingest_checkpoint_errors_total", "Failed checkpoint attempts.")
	m.lastCheckpointUnix = reg.Gauge("ingest_last_checkpoint_unix", "Unix time of the newest good checkpoint.")
	m.lastCheckpointBytes = reg.Gauge("ingest_last_checkpoint_bytes", "Size of the newest good checkpoint.")

	t := &p.tel
	t.enabled = !p.cfg.noHotPathTelemetry
	t.batchEvents = reg.Histogram("ingest_batch_events",
		"Events per processed batch.", telemetry.CountBuckets())
	t.checkpointTime = reg.Histogram("ingest_checkpoint_seconds",
		"Wall time writing one durable checkpoint (includes the quiesce).", telemetry.DurationBuckets())
	t.checkpointVolume = reg.Histogram("ingest_checkpoint_written_bytes",
		"Bytes written per durable checkpoint.", telemetry.SizeBuckets())

	t.batchSeconds = reg.Histogram("ingest_batch_seconds",
		"Observe-loop wall time per batch (store write + stages).", telemetry.DurationBuckets())
	t.queueHighWater = reg.Gauge("ingest_queue_high_water",
		"Deepest queue depth seen, in batches.")
	in := p.in
	reg.GaugeFunc("ingest_queue_depth",
		"Current queue depth in batches.",
		func() float64 { return float64(len(in)) })

	t.stageSeconds = make([]*telemetry.Histogram, len(p.stages))
	for i, st := range p.stages {
		t.stageSeconds[i] = reg.Histogram("ingest_stage_seconds",
			"Per-batch wall time of one enrichment stage.", telemetry.DurationBuckets(),
			telemetry.L("stage", st.Name()))
	}

	store := p.store
	reg.GaugeFunc("ingest_corpus_addresses",
		"Unique addresses in the store.",
		func() float64 { return float64(store.NumAddrs()) })
	reg.GaugeFunc("ingest_corpus_bytes",
		"Estimated resident bytes of the store.",
		func() float64 { return float64(store.MemoryFootprint()) })
}

// MetricsSnapshot is a point-in-time reading, JSON-shaped for stat
// endpoints.
type MetricsSnapshot struct {
	Enqueued      uint64 `json:"enqueued"`
	Dropped       uint64 `json:"dropped"`
	Processed     uint64 `json:"processed"`
	Batches       uint64 `json:"batches"`
	QueuedBatches int    `json:"queued_batches"`
	// EventsPerSec is the lifetime average processing rate;
	// RecentEventsPerSec the rate over the trailing sample window (up to
	// ~rateWindowSpan), which is what a long-running daemon's dashboard
	// should watch — the lifetime average goes stale within hours.
	EventsPerSec       float64 `json:"events_per_sec"`
	RecentEventsPerSec float64 `json:"recent_events_per_sec"`
	// CorpusBytes estimates the store's resident size under the
	// flat-slab layout; BytesPerAddr divides it by unique addresses.
	CorpusBytes  uint64  `json:"corpus_bytes"`
	BytesPerAddr float64 `json:"bytes_per_addr"`
	// Checkpoints counts successful durable snapshots written;
	// CheckpointErrors failed attempts (full disk, bad path). The Last*
	// pair describes the newest good checkpoint — a serving daemon's
	// "how much would a crash lose right now" gauge.
	Checkpoints uint64 `json:"checkpoints"`
	// DeltaCheckpoints is the subset of Checkpoints written as chain
	// deltas (CheckpointChain); ChainSeq is the corpus's position
	// in the current chain — 0 right after a full checkpoint, N after N
	// deltas on that base.
	DeltaCheckpoints    uint64 `json:"delta_checkpoints,omitempty"`
	ChainSeq            uint64 `json:"chain_seq,omitempty"`
	CheckpointErrors    uint64 `json:"checkpoint_errors"`
	LastCheckpointUnix  int64  `json:"last_checkpoint_unix,omitempty"`
	LastCheckpointBytes uint64 `json:"last_checkpoint_bytes,omitempty"`
}

// Metrics returns a point-in-time reading of the counter block.
// QueuedBatches is the queue's current depth (the backpressure
// signal). Each call contributes a sample to the recent-
// rate window, so periodic pollers (the /stats endpoint) get a rolling
// rate for free.
func (p *Pipeline) Metrics() MetricsSnapshot {
	now := time.Now()
	processed := p.metrics.processed.Value()
	elapsed := now.Sub(p.metrics.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(processed) / elapsed
	}
	recent, ok := p.metrics.recent.Tick(now, processed)
	if !ok {
		// One sample (or a clock hiccup): the lifetime average is the
		// best recent estimate there is.
		recent = rate
	}
	corpusBytes := p.store.MemoryFootprint()
	bytesPerAddr := 0.0
	if n := p.store.NumAddrs(); n > 0 {
		bytesPerAddr = float64(corpusBytes) / float64(n)
	}
	chainSeq, _ := p.store.CheckpointSeq()
	return MetricsSnapshot{
		Enqueued:            p.metrics.enqueued.Value(),
		Dropped:             p.metrics.dropped.Value(),
		Processed:           processed,
		Batches:             p.metrics.batches.Value(),
		QueuedBatches:       len(p.in),
		EventsPerSec:        rate,
		RecentEventsPerSec:  recent,
		CorpusBytes:         corpusBytes,
		BytesPerAddr:        bytesPerAddr,
		Checkpoints:         p.metrics.checkpoints.Value(),
		DeltaCheckpoints:    p.metrics.deltaCheckpoints.Value(),
		ChainSeq:            chainSeq,
		CheckpointErrors:    p.metrics.checkpointErrors.Value(),
		LastCheckpointUnix:  p.metrics.lastCheckpointUnix.Value(),
		LastCheckpointBytes: uint64(p.metrics.lastCheckpointBytes.Value()),
	}
}
