package ingest

import (
	"fmt"
	"sync"
	"time"

	"hitlist6/internal/collector"
	"hitlist6/internal/telemetry"
)

// Pipeline is the ingestion engine. Producers obtain Batchers and push
// Events; full batches queue for the one worker goroutine, which folds
// every batch straight into the Store, under its write lock, and then
// runs it through the pipeline's one instance of each configured
// enrichment stage, under stageMu. Each sighting is written once, into
// the one corpus, so readers of the Store and of the stages see every
// finished batch, and batches land in the order they were queued.
// Nothing per IID is kept while ingesting: readers that need it fold a
// Records.IIDTable.
type Pipeline struct {
	cfg   Config
	store *collector.Store

	// in is the batch queue the worker drains; snap is its Quiesce
	// doorbell.
	in   chan []Event
	snap chan chan struct{}

	// stages holds the one instance of each cfg.Stages entry, in order.
	// stageMu guards it: the worker holds it for a batch's stage pass,
	// readers (StageView, Stage, SeedStage) for theirs.
	stageMu sync.Mutex
	stages  []Stage

	metrics Metrics
	tel     pipelineTelemetry

	workerWG sync.WaitGroup

	closeOnce sync.Once
	result    *collector.Collector

	// ckptMu serializes file checkpoints (CheckpointChain may be called
	// from several goroutines); chainBroken forces the next chain
	// checkpoint to be full: a write advanced the corpus's watermark
	// without landing durably on disk, or CheckpointFile replaced the
	// base the chain was cut against.
	ckptMu      sync.Mutex
	chainBroken bool

	// free recycles batch backing arrays between producers and the
	// worker. A plain channel, not a sync.Pool: Put-ting a slice into a
	// Pool boxes the slice header into an interface — one heap
	// allocation per batch, exactly the garbage the recycling exists to
	// avoid. A buffered channel of slice headers allocates nothing in
	// steady state; when it runs empty the producer falls back to make.
	free chan []Event
}

// New builds and starts a pipeline. The returned pipeline is running:
// obtain Batchers (or call Ingest) to feed it, and Close to finish.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:    cfg,
		store:  collector.NewStore(),
		in:     make(chan []Event, cfg.QueueDepth),
		snap:   make(chan chan struct{}, 1),
		stages: make([]Stage, len(cfg.Stages)),
	}
	for i, f := range cfg.Stages {
		p.stages[i] = f()
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
	p.free = make(chan []Event, cfg.QueueDepth+2)
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	p.initTelemetry(reg)
	p.workerWG.Add(1)
	go p.runWorker()
	return p, nil
}

// Store returns the live corpus: every batch the worker has finished is
// in it. Quiesce makes it hold every event flushed before the call.
func (p *Pipeline) Store() *collector.Store { return p.store }

// runWorker is the worker loop: drain batches, fold events, answer
// Quiesce doorbells.
func (p *Pipeline) runWorker() {
	defer p.workerWG.Done()
	for {
		select {
		case batch, ok := <-p.in:
			if !ok {
				return
			}
			p.processBatch(batch)
		case done := <-p.snap:
			// Drain already-queued batches first so everything flushed
			// before Quiesce was called is folded before the ack. The
			// worker is the queue's only receiver, so a non-empty queue
			// never blocks it.
			for len(p.in) > 0 {
				p.processBatch(<-p.in)
			}
			close(done)
		}
	}
}

// processBatch folds one batch into the Store, under one write-lock
// hold, and then into the stages, under one stageMu hold. The loop is
// structured stage-major (corpus pass, then one pass per stage) so each
// lock is held for its own pass alone and each stage's wall time is
// measurable with two clock reads per batch instead of two per event —
// the whole point of the telemetry being affordable at line rate.
// Timing costs amortize over BatchSize events; the timed and untimed
// paths share the same loop shape so BenchmarkTelemetryOverhead
// isolates the instrumentation cost alone.
func (p *Pipeline) processBatch(batch []Event) {
	timed := p.tel.enabled
	var start time.Time
	if timed {
		start = time.Now()
	}
	p.store.Update(func(c *collector.Collector) {
		for i := range batch {
			ev := &batch[i]
			c.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
		}
	})
	p.stageMu.Lock()
	for si, st := range p.stages {
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
	// Counted under stageMu, so SeedStage sees a batch as processed
	// exactly when the stages hold it.
	p.metrics.processed.Add(uint64(len(batch)))
	p.stageMu.Unlock()
	if timed {
		p.tel.batchSeconds.ObserveDuration(time.Since(start))
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

// Quiesce asks the worker to drain its queue, and blocks until it has:
// on return, every event Flushed before the call is in the Store and
// the stages. This is the read-your-writes barrier the durable paths
// need — a checkpoint taken after Quiesce provably contains everything
// flushed before it. Must not race with Close.
func (p *Pipeline) Quiesce() {
	ack := make(chan struct{})
	p.snap <- ack
	<-ack
}

// SeedStage installs a restored stage state as the pipeline's instance
// with the given name — the stage half of restore-on-start, pairing
// with Config.Seed's corpus half. The pipeline takes ownership of from.
// Call it before events flow: once the worker has processed a batch the
// instance holds state an install would throw away, so SeedStage
// returns an error instead. The test reads Metrics().Processed, which a
// pipeline rebuilt on a shared Registry inherits: such a pipeline
// refuses seeds from the start.
func (p *Pipeline) SeedStage(name string, from Stage) error {
	p.stageMu.Lock()
	defer p.stageMu.Unlock()
	if n := p.metrics.processed.Value(); n > 0 {
		return fmt.Errorf("ingest: stage %q seeded after %d events were processed", name, n)
	}
	for i, st := range p.stages {
		if st.Name() == name {
			p.stages[i] = from
			return nil
		}
	}
	return fmt.Errorf("ingest: no stage named %q to seed", name)
}

// StageView runs fn over the pipeline's stages, in Config.Stages order,
// under stageMu: the view holds every batch the worker has finished,
// and the worker waits while fn runs. fn must not retain the slice.
func (p *Pipeline) StageView(fn func(stages []Stage)) {
	p.stageMu.Lock()
	defer p.stageMu.Unlock()
	fn(p.stages)
}

// Stage returns the pipeline's stage with the given name, or nil. The
// instance is the live one the worker feeds: read it after Close, or
// through StageView while events flow.
func (p *Pipeline) Stage(name string) Stage {
	p.stageMu.Lock()
	defer p.stageMu.Unlock()
	for _, st := range p.stages {
		if st.Name() == name {
			return st
		}
	}
	return nil
}

// Close finishes ingestion: all producers must have Flushed and stopped
// first. Every queued batch is drained, and the corpus is detached from
// the Store and returned. The Store remains usable (empty), the stages
// keep their final state, and further Close calls return the same
// collector.
func (p *Pipeline) Close() *collector.Collector {
	p.closeOnce.Do(func() {
		close(p.in)
		p.workerWG.Wait()
		p.result = p.store.Detach()
	})
	return p.result
}

// ---- Producer side ----

// Batcher is a producer handle: a buffer that flushes to the queue as
// it fills. A Batcher is not safe for concurrent use — each producer
// goroutine takes its own; any number may feed one pipeline
// concurrently.
type Batcher struct {
	p   *Pipeline
	buf []Event
}

// NewBatcher returns a producer handle.
func (p *Pipeline) NewBatcher() *Batcher {
	return &Batcher{p: p, buf: p.getBatch()}
}

// Add enqueues one event, flushing the batch if it just filled.
func (b *Batcher) Add(ev Event) {
	b.buf = append(b.buf, ev)
	if len(b.buf) >= b.p.cfg.BatchSize {
		b.p.submit(b.buf)
		b.buf = b.p.getBatch()
	}
}

// Flush pushes the buffered batch, if it holds any event. Call when the
// producer's stream ends (and before Pipeline.Close).
func (b *Batcher) Flush() {
	if len(b.buf) == 0 {
		return
	}
	b.p.submit(b.buf)
	b.buf = b.p.getBatch()
}

// submit applies the admission policy for one full batch.
func (p *Pipeline) submit(batch []Event) {
	if p.cfg.DropOnFull {
		select {
		case p.in <- batch:
		default:
			p.metrics.dropped.Add(uint64(len(batch)))
			p.putBatch(batch)
			return
		}
	} else {
		p.in <- batch
	}
	p.metrics.enqueued.Add(uint64(len(batch)))
	p.metrics.batches.Add(1)
	if p.tel.enabled {
		// The post-send depth is the backpressure high-water signal: a
		// queue that keeps brushing QueueDepth is a pipeline one burst
		// away from blocking (or shedding) producers.
		p.tel.queueHighWater.SetMax(int64(len(p.in)))
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
