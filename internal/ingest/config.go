// Package ingest implements the concurrent ingestion pipeline: the
// production seam between a raw NTP query stream and the passive
// observation store. Any number of producers hand batches of events to
// one queue; one worker goroutine folds each batch into the one
// collector.Store under its write lock, so every sighting is written
// once, into the corpus readers query live. Batched channels amortize
// synchronization, and an admission policy provides backpressure
// (block) or load-shedding (drop). Pluggable enrichment stages run
// inline on the worker, one instance each, under a lock their readers
// share, so a reader sees them current to the last finished batch.
//
// The paper's deployment is 27 vantage servers each feeding one stream;
// this pipeline is what one vantage (or a central aggregator receiving
// all 27) runs. One worker is the design, not a default: the Store's
// write lock would serialize several anyway, and with one the corpus's
// slab order — and with it every checkpoint file — follows the queue
// order alone.
package ingest

import (
	"fmt"
	"time"

	"hitlist6/internal/collector"
	"hitlist6/internal/telemetry"
)

// Config parameterizes a Pipeline.
type Config struct {
	// Shards must be 0 or 1: the pipeline runs one worker. The field
	// stays only because the benchmark module (bench/layers) still sets
	// it; it goes with the benchmark's next revision (ROADMAP item 1).
	Shards int
	// BatchSize is how many events a Batcher accumulates before handing
	// the batch to the queue. Larger batches amortize channel
	// synchronization; smaller ones reduce latency. 0 selects 256.
	BatchSize int
	// QueueDepth is the queue's capacity in batches. 0 selects 8.
	QueueDepth int
	// DropOnFull selects the admission policy when the queue is full:
	// false (default) blocks the producer — backpressure — while true
	// sheds the batch and counts it in Metrics.Dropped, which is what a
	// live UDP collector wants instead of kernel buffer bloat.
	DropOnFull bool
	// SnapshotInterval is ignored: the Store and the stages are current
	// to the last finished batch, so there is nothing to snapshot. It
	// stays only because the benchmark module (bench/layers) still sets
	// it; it goes with the benchmark's next revision (ROADMAP item 1).
	SnapshotInterval time.Duration
	// ServerCap is the highest vantage-server count the deployment
	// attributes distinctly; events with Server >= ServerCap saturate
	// onto index ServerCap-1. It cannot exceed collector.MaxServers
	// (the AddrRecord.Servers bitmask width). 0 selects the maximum.
	ServerCap int
	// Stages are enrichment-stage factories; the pipeline builds one
	// instance of each, which the worker feeds every batch and StageView
	// reads. Each is one more pass over every batch: for what needs the
	// event's time (see Stage).
	Stages []StageFactory
	// Seed, when non-nil, is a corpus the pipeline starts from — the
	// restore half of checkpointing, typically collector.OpenSnapshot's
	// result. The pipeline takes ownership (the store absorbs it before
	// any event flows), so the merged corpus is the seed plus everything
	// ingested, exactly as if the seed's observations had streamed first.
	Seed *collector.Collector
	// CompactEvery bounds the delta chain: after this many deltas the
	// next checkpoint is a full one, folding the chain into a fresh base
	// and deleting the delta files. 0 means the default (16); only
	// CheckpointChain reads it.
	CompactEvery int
	// Registry, when non-nil, is the telemetry registry the pipeline
	// registers its metric families in — queue gauges, batch
	// latency and size histograms, per-stage timings, checkpoint
	// duration/bytes — so a daemon's /metrics endpoint exposes them.
	// nil selects a private registry: the pipeline is always fully
	// instrumented (Metrics() reads the same counters either way), the
	// registry just isn't shared with anyone.
	Registry *telemetry.Registry
	// noHotPathTelemetry disables the per-batch timing instrumentation
	// (time reads + histogram observations) while keeping the counter
	// block. This is not a production switch — it exists so
	// BenchmarkTelemetryOverhead can measure the uninstrumented observe
	// loop as its baseline and prove the instrumented path stays within
	// budget.
	noHotPathTelemetry bool
}

// DefaultConfig returns a replay-tuned configuration: blocking
// admission, no stages.
func DefaultConfig() Config {
	return Config{}
}

func (c *Config) fillDefaults() error {
	if c.Shards != 0 && c.Shards != 1 {
		return fmt.Errorf("ingest: Shards %d: the pipeline runs one worker (0 or 1)", c.Shards)
	}
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("ingest: BatchSize %d negative", c.BatchSize)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("ingest: QueueDepth %d negative", c.QueueDepth)
	}
	if c.ServerCap == 0 {
		c.ServerCap = collector.MaxServers
	}
	if c.ServerCap < 1 || c.ServerCap > collector.MaxServers {
		return fmt.Errorf("ingest: ServerCap %d out of [1,%d]",
			c.ServerCap, collector.MaxServers)
	}
	if c.CompactEvery < 0 {
		return fmt.Errorf("ingest: CompactEvery %d negative", c.CompactEvery)
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = 16
	}
	return nil
}
