// Package ingest implements the sharded concurrent ingestion pipeline:
// the production seam between a raw NTP query stream and the passive
// observation store. Events fan out to N shard workers by address hash,
// so same-address sightings always land on the same worker. Batched
// channels — the one shard queue — amortize synchronization and an
// admission policy provides backpressure (block) or load-shedding
// (drop). Each worker folds a whole batch into the one collector.Store
// under its write lock, so every sighting is written once, into the
// corpus readers query live; sightings commute, so the corpus does not
// depend on which worker's batch lands first. Pluggable enrichment
// stages run inline on each worker, lock-free on private instances
// that snapshots merge into the pipeline-level view.
//
// The paper's deployment is 27 vantage servers each feeding one stream;
// this pipeline is what one high-volume vantage (or a central
// aggregator receiving all 27) runs to keep up with line rate.
package ingest

import (
	"fmt"
	"runtime"
	"time"

	"hitlist6/internal/collector"
	"hitlist6/internal/telemetry"
)

// Config parameterizes a Pipeline.
type Config struct {
	// Shards is the number of shard queues and worker goroutines. 0
	// selects GOMAXPROCS capped at 8. Same-address events always hash
	// to the same shard, so results are independent of the shard count.
	Shards int
	// BatchSize is how many events a Batcher accumulates per shard
	// before handing the batch to the shard's queue. Larger batches
	// amortize channel synchronization; smaller ones reduce latency.
	// 0 selects 256.
	BatchSize int
	// QueueDepth is the per-shard queue capacity in batches. 0 selects 8.
	QueueDepth int
	// DropOnFull selects the admission policy when a shard queue is
	// full: false (default) blocks the producer — backpressure — while
	// true sheds the batch and counts it in Metrics.Dropped, which is
	// what a live UDP collector wants instead of kernel buffer bloat.
	DropOnFull bool
	// SnapshotInterval is how often the shards merge their stage
	// instances into the pipeline-level view StageView reads. The Store
	// needs no snapshot: every batch a worker finishes is in it. 0, or
	// no Stages, disables periodic snapshots: the merged stages then
	// change only at Quiesce and Close. Replay-style batch runs want 0;
	// serving daemons want something like a few seconds.
	SnapshotInterval time.Duration
	// ServerCap is the highest vantage-server count the deployment
	// attributes distinctly; events with Server >= ServerCap saturate
	// onto index ServerCap-1. It cannot exceed collector.MaxServers
	// (the AddrRecord.Servers bitmask width). 0 selects the maximum.
	ServerCap int
	// Stages are enrichment-stage factories; each shard gets a private
	// instance of every stage, and snapshots merge them into the
	// pipeline-level results readable via StageView. Each is one more
	// pass over every batch: for what needs the event's time (see Stage).
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
	// registers its metric families in — per-shard queue gauges, batch
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

// DefaultConfig returns a replay-tuned configuration (blocking
// admission, snapshot only on Close) with n shards (0 = auto).
func DefaultConfig(n int) Config {
	return Config{Shards: n}
}

func (c *Config) fillDefaults() error {
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	if c.Shards < 0 {
		return fmt.Errorf("ingest: Shards %d negative", c.Shards)
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
