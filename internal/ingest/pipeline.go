package ingest

import (
	"fmt"
	"sync"
	"time"

	"hitlist6/internal/collector"
	"hitlist6/internal/telemetry"
)

// Pipeline is the sharded ingestion engine. Producers obtain Batchers
// and push Events; each event hashes to one of N shards, whose worker
// goroutine folds every batch straight into the Store, under its write
// lock, once per batch, and then runs the batch through its private
// instances of the configured enrichment stages, lock-free. Each
// sighting is written once, into the one corpus, so readers see every
// finished batch. Stage instances reach the pipeline-level view at
// snapshots (periodic, on demand, and at Close). Nothing per IID is
// kept while ingesting: readers that need it build a
// Collector.IIDTable.
type Pipeline struct {
	cfg   Config
	store *collector.Store

	shards []*shard

	// mergedStages[i] accumulates every shard's instance of
	// cfg.Stages[i]; guarded by stageMu (written by handOff, read by
	// StageView).
	stageMu      sync.Mutex
	mergedStages []Stage

	metrics Metrics
	tel     pipelineTelemetry

	workersWG sync.WaitGroup
	tickerWG  sync.WaitGroup
	stopTick  chan struct{}

	closeOnce sync.Once
	result    *collector.Collector

	// ckptMu serializes file checkpoints (CheckpointChain may be called
	// from several goroutines); chainBroken forces the next chain
	// checkpoint to be full: a write advanced the corpus's watermark
	// without landing durably on disk, or CheckpointFile replaced the
	// base the chain was cut against.
	ckptMu      sync.Mutex
	chainBroken bool

	// free recycles batch backing arrays between producers and workers.
	// A plain channel, not a sync.Pool: Put-ting a slice into a Pool
	// boxes the slice header into an interface — one heap allocation per
	// batch, exactly the garbage the recycling exists to avoid. A
	// buffered channel of slice headers allocates nothing in steady
	// state; when it runs empty the producer falls back to make.
	free chan []Event
}

// shard is one worker's private world: its inbound batch queue, a
// snapshot doorbell, and the stage instances it owns. idx is the
// shard's index, the label its telemetry series carry.
type shard struct {
	idx    int
	in     chan []Event
	snap   chan chan struct{}
	stages []Stage
}

// New builds and starts a pipeline. The returned pipeline is running:
// obtain Batchers (or call Ingest) to feed it, and Close to finish.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:      cfg,
		store:    collector.NewStore(),
		stopTick: make(chan struct{}),
	}
	p.metrics.start = time.Now()
	if cfg.Seed != nil {
		// The restored corpus lands before any event flows; ApplyShard
		// into the empty store is a wholesale adoption, not a merge.
		p.store.ApplyShard(cfg.Seed)
		cfg.Seed = nil
		p.cfg.Seed = nil
	}
	// Enough recycled batches for every queue slot plus one in flight on
	// each side; beyond that, putBatch lets extras go to the GC.
	p.free = make(chan []Event, cfg.Shards*(cfg.QueueDepth+2))
	p.mergedStages = newStages(cfg.Stages)
	p.shards = make([]*shard, cfg.Shards)
	for i := range p.shards {
		p.shards[i] = &shard{
			idx:    i,
			in:     make(chan []Event, cfg.QueueDepth),
			snap:   make(chan chan struct{}, 1),
			stages: newStages(cfg.Stages),
		}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	p.initTelemetry(reg)
	for _, s := range p.shards {
		p.workersWG.Add(1)
		go p.runShard(s)
	}
	// With no stages a snapshot has nothing to merge: no ticker.
	if cfg.SnapshotInterval > 0 && len(cfg.Stages) > 0 {
		p.tickerWG.Add(1)
		go p.runTicker(cfg.SnapshotInterval)
	}
	return p, nil
}

// Store returns the live corpus: every batch a shard worker has
// finished is in it. Quiesce makes it hold every event flushed before
// the call.
func (p *Pipeline) Store() *collector.Store { return p.store }

// NumShards returns the shard count in effect.
func (p *Pipeline) NumShards() int { return len(p.shards) }

// runShard is one worker loop: drain batches, fold events, answer
// snapshot doorbells.
func (p *Pipeline) runShard(s *shard) {
	defer p.workersWG.Done()
	for {
		select {
		case batch, ok := <-s.in:
			if !ok {
				p.handOff(s, false)
				return
			}
			p.processBatch(s, batch)
		case done := <-s.snap:
			// Drain already-queued batches first so everything flushed
			// before Quiesce was called is folded before the handoff.
			open := true
		drain:
			for open {
				select {
				case batch, ok := <-s.in:
					if ok {
						p.processBatch(s, batch)
					}
					open = ok
				default:
					break drain
				}
			}
			p.handOff(s, open)
			close(done)
			if !open {
				return
			}
		}
	}
}

// handOff merges the shard's stage instances into the pipeline-level
// ones; its records need no handoff, processBatch wrote them to the
// Store. While the queue is still open the shard starts its next epoch
// on fresh instances; once the producer side has closed this was the
// final handoff and the shard keeps nothing.
func (p *Pipeline) handOff(s *shard, open bool) {
	start := time.Now()
	p.stageMu.Lock()
	for i, st := range s.stages {
		p.mergedStages[i].Merge(st)
	}
	p.stageMu.Unlock()
	p.tel.mergeSeconds.ObserveDuration(time.Since(start))
	p.metrics.snapshots.Add(1)
	s.stages = nil
	if open {
		s.stages = newStages(p.cfg.Stages)
	}
}

// newStages instantiates one private instance of every configured stage.
func newStages(factories []StageFactory) []Stage {
	stages := make([]Stage, len(factories))
	for i, f := range factories {
		stages[i] = f()
	}
	return stages
}

// processBatch folds one batch into the Store, under one write-lock
// hold, and then into the shard's stages. The loop is structured
// stage-major (corpus pass, then one pass per stage) so the lock is
// held for the corpus pass alone and each stage's wall time is
// measurable with two clock reads per batch instead of two per event —
// the whole point of the telemetry being affordable at line rate.
// Timing costs amortize over BatchSize events; the timed and untimed
// paths share the same loop shape so BenchmarkTelemetryOverhead
// isolates the instrumentation cost alone.
func (p *Pipeline) processBatch(s *shard, batch []Event) {
	cap32 := int32(p.cfg.ServerCap)
	timed := p.tel.enabled
	var start time.Time
	if timed {
		start = time.Now()
	}
	p.store.Update(func(c *collector.Collector) {
		for i := range batch {
			ev := &batch[i]
			if ev.Server >= cap32 {
				// Deployment-level saturation: attribute to the last
				// distinct index the config allows (collector.ServerBit
				// would otherwise saturate at MaxServers-1 regardless).
				ev.Server = cap32 - 1
			}
			c.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
		}
	})
	for si, st := range s.stages {
		var stageStart time.Time
		if timed {
			stageStart = time.Now()
		}
		for _, ev := range batch {
			st.Process(ev)
		}
		if timed {
			p.tel.stageSeconds[si].ObserveDuration(time.Since(stageStart))
		}
	}
	p.metrics.processed.Add(uint64(len(batch)))
	if timed {
		p.tel.shardEvents[s.idx].Add(uint64(len(batch)))
		p.tel.batchSeconds[s.idx].ObserveDuration(time.Since(start))
		p.tel.batchEvents.Observe(float64(len(batch)))
	}
	p.putBatch(batch)
}

// getBatch returns an empty batch with BatchSize capacity, recycled
// when one is available.
func (p *Pipeline) getBatch() []Event {
	select {
	case b := <-p.free:
		return b
	default:
		return make([]Event, 0, p.cfg.BatchSize)
	}
}

// putBatch recycles a batch's backing array; extras beyond the
// freelist's capacity are dropped for the GC.
func (p *Pipeline) putBatch(batch []Event) {
	select {
	case p.free <- batch[:0]:
	default:
	}
}

func (p *Pipeline) runTicker(every time.Duration) {
	defer p.tickerWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.Quiesce()
		case <-p.stopTick:
			return
		}
	}
}

// Quiesce asks every shard to drain its queue and merge its stage
// instances into the pipeline-level ones, and blocks until all have:
// on return, every event Flushed before the call is in the Store and
// the merged stages. This is the read-your-writes barrier the durable
// paths need — a checkpoint taken after Quiesce provably contains
// everything flushed before it. Must not race with Close.
func (p *Pipeline) Quiesce() {
	acks := make([]chan struct{}, len(p.shards))
	for i, s := range p.shards {
		ack := make(chan struct{})
		acks[i] = ack
		s.snap <- ack
	}
	for _, ack := range acks {
		<-ack
	}
}

// SeedStage folds a restored stage state into the pipeline-level merged
// instance with the given name — the stage half of restore-on-start,
// pairing with Config.Seed's corpus half. The pipeline takes ownership
// of from. Call before events flow if byte-exact resume equivalence
// matters (stage merges commute, so even that is ordering-insensitive).
func (p *Pipeline) SeedStage(name string, from Stage) error {
	p.stageMu.Lock()
	defer p.stageMu.Unlock()
	for _, st := range p.mergedStages {
		if st.Name() == name {
			st.Merge(from)
			return nil
		}
	}
	return fmt.Errorf("ingest: no stage named %q to seed", name)
}

// StageView runs fn over the pipeline-level merged enrichment stages,
// in Config.Stages order. The view reflects state up to the last
// snapshot; after Close it is complete. fn must not retain the slice.
func (p *Pipeline) StageView(fn func(stages []Stage)) {
	p.stageMu.Lock()
	defer p.stageMu.Unlock()
	fn(p.mergedStages)
}

// Stage returns the pipeline-level merged stage with the given name, or
// nil. The same caveats as StageView apply; prefer calling it after
// Close.
func (p *Pipeline) Stage(name string) Stage {
	p.stageMu.Lock()
	defer p.stageMu.Unlock()
	for _, st := range p.mergedStages {
		if st.Name() == name {
			return st
		}
	}
	return nil
}

// Close finishes ingestion: all producers must have Flushed and stopped
// first. Every queued batch is drained, the final stage instances
// merge, and the corpus is detached from the Store and returned. The
// Store remains usable (empty) and further Close calls return the same
// collector.
func (p *Pipeline) Close() *collector.Collector {
	p.closeOnce.Do(func() {
		close(p.stopTick)
		p.tickerWG.Wait()
		for _, s := range p.shards {
			close(s.in)
		}
		p.workersWG.Wait()
		p.result = p.store.Detach()
	})
	return p.result
}

// ---- Producer side ----

// Batcher is a producer handle: per-shard buffers that flush to the
// shard queues as they fill. A Batcher is not safe for concurrent use —
// each producer goroutine takes its own; any number may feed one
// pipeline concurrently.
type Batcher struct {
	p    *Pipeline
	bufs [][]Event
}

// NewBatcher returns a producer handle.
func (p *Pipeline) NewBatcher() *Batcher {
	b := &Batcher{p: p, bufs: make([][]Event, len(p.shards))}
	for i := range b.bufs {
		b.bufs[i] = p.getBatch()
	}
	return b
}

// Add enqueues one event, flushing the destination shard's batch if it
// just filled.
func (b *Batcher) Add(ev Event) {
	sh := shardOf(ev.Addr, len(b.p.shards))
	buf := append(b.bufs[sh], ev)
	if len(buf) >= b.p.cfg.BatchSize {
		b.p.submit(sh, buf)
		buf = b.p.getBatch()
	}
	b.bufs[sh] = buf
}

// Flush pushes every non-empty buffered batch. Call when the producer's
// stream ends (and before Pipeline.Close).
func (b *Batcher) Flush() {
	for sh, buf := range b.bufs {
		if len(buf) == 0 {
			continue
		}
		b.p.submit(sh, buf)
		b.bufs[sh] = b.p.getBatch()
	}
}

// submit applies the admission policy for one full batch.
func (p *Pipeline) submit(sh int, batch []Event) {
	s := p.shards[sh]
	if p.cfg.DropOnFull {
		select {
		case s.in <- batch:
		default:
			p.metrics.dropped.Add(uint64(len(batch)))
			p.putBatch(batch)
			return
		}
	} else {
		s.in <- batch
	}
	p.metrics.enqueued.Add(uint64(len(batch)))
	p.metrics.batches.Add(1)
	if p.tel.enabled {
		// The post-send depth is the backpressure high-water signal: a
		// queue that keeps brushing QueueDepth is a pipeline one burst
		// away from blocking (or shedding) producers.
		p.tel.queueHighWater[sh].SetMax(int64(len(s.in)))
	}
}

// Ingest feeds a whole slice through a throwaway Batcher: the
// convenience path for replay drivers and tests.
func (p *Pipeline) Ingest(events []Event) {
	b := p.NewBatcher()
	for _, ev := range events {
		b.Add(ev)
	}
	b.Flush()
}
