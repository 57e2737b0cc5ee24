package ingest

import (
	"bytes"
	"sync"
	"testing"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
)

// TestConcurrentProducersMatchSerial is the concurrency correctness
// contract of the pipeline (run it with -race): the same event stream,
// ingested by four concurrent producers with a quiesce after the feed,
// must give the serial single-collector corpus byte for byte.
// Per-address updates commute, so neither the producer interleaving
// nor the snapshot schedule may leave a trace in the canonical
// encoding.
func TestConcurrentProducersMatchSerial(t *testing.T) {
	events := testEvents(t, 0.03, 12)
	var serial bytes.Buffer
	func() {
		c := collector.New()
		for _, ev := range events {
			c.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
		}
		if err := c.WriteCanonical(&serial); err != nil {
			t.Fatal(err)
		}
	}()

	cfg := DefaultConfig()
	cfg.BatchSize = 32 // small batches: more queue traffic under -race
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedConcurrently(p, events, 4)
	// A quiesce before Close covers the snapshot path too.
	p.Quiesce()
	merged := p.Close()

	var got bytes.Buffer
	if err := merged.WriteCanonical(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), serial.Bytes()) {
		t.Errorf("canonical encoding differs from serial (%d vs %d bytes)",
			got.Len(), serial.Len())
	}
}

// TestSnapshotDuringIngest rings the snapshot doorbell repeatedly while
// three producers are still feeding the pipeline: the mid-stream
// handoffs — each one a drain racing live enqueues — must not lose,
// duplicate or stall events, and must leave the serial collector's
// exact corpus (run with -race).
func TestSnapshotDuringIngest(t *testing.T) {
	events := testEvents(t, 0.02, 6)
	serial := collector.New()
	for _, ev := range events {
		serial.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
	}

	cfg := DefaultConfig()
	cfg.BatchSize = 16
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		feedConcurrently(p, events, 3)
	}()
	for i := 0; i < 8; i++ {
		p.Quiesce()
	}
	<-fed
	merged := p.Close()
	if merged.Checksum() != serial.Checksum() {
		t.Errorf("corpus differs from the serial collector's (%d observations, want %d)",
			merged.TotalObservations(), len(events))
	}
}

// TestStoreConcurrentReaders hammers the live Store view from reader
// goroutines while ingestion and a quiesce run: the single-writer /
// many-reader contract of collector.Store, and the stage lock the
// worker shares with StageView, under -race.
func TestStoreConcurrentReaders(t *testing.T) {
	events := testEvents(t, 0.03, 8)
	cfg := DefaultConfig()
	cfg.Stages = []StageFactory{Categories()}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.Store().View(func(c *collector.Collector) {
					c.AddrsRange(0, c.NumAddrs(), func(_ addr.Addr, _ collector.AddrRecord) bool {
						return false
					})
				})
				_ = p.Store().NumAddrs()
				_ = p.Metrics()
				var sum uint64
				p.StageView(func(stages []Stage) {
					for _, n := range stages[0].(*CategoryStage).Counts {
						sum += n
					}
				})
				if sum > uint64(len(events)) {
					t.Errorf("stage view counts %d sightings of %d", sum, len(events))
				}
			}
		}()
	}

	half := len(events) / 2
	p.Ingest(events[:half])
	p.Quiesce()
	p.Ingest(events[half:])
	merged := p.Close()
	close(stop)
	readers.Wait()

	if merged.TotalObservations() != uint64(len(events)) {
		t.Errorf("observations %d, want %d", merged.TotalObservations(), len(events))
	}
	var sum uint64
	for _, n := range p.Stage("categories").(*CategoryStage).Counts {
		sum += n
	}
	if sum != uint64(len(events)) {
		t.Errorf("stage counts %d sightings, want %d", sum, len(events))
	}
}
