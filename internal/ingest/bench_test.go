package ingest

import (
	"fmt"
	"sync"
	"testing"

	"hitlist6/internal/collector"
	"hitlist6/internal/simnet"
)

// The ingest benchmarks answer the scaling question directly: how fast
// can one machine fold the simnet event stream into the observation
// store, single-threaded versus sharded? The stream is materialized
// once (vantage pre-assigned) so every variant measures pure ingestion,
// not simulation. Run with
//
//	go test -bench BenchmarkIngest ./internal/ingest
//
// and compare the events/sec metric across shard counts; speedup over
// BenchmarkIngestSerial tracks the core count (on a single-core
// machine the sharded variants only add scheduling overhead).
var (
	benchOnce   sync.Once
	benchStream []Event
	benchErr    error
)

func benchEvents(b *testing.B) []Event {
	b.Helper()
	benchOnce.Do(func() {
		cfg := simnet.DefaultConfig(23, 0.2)
		cfg.Days = 60
		w, err := simnet.Build(cfg)
		if err != nil {
			benchErr = err
			return
		}
		i := 0
		w.GenerateQueries(func(q simnet.Query) {
			benchStream = append(benchStream, Event{
				Addr:   q.Addr,
				Time:   q.Time.Unix(),
				Server: int32(i % 27),
			})
			i++
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	if len(benchStream) == 0 {
		b.Fatal("empty benchmark stream")
	}
	return benchStream
}

// BenchmarkIngestSerial is the pre-pipeline baseline: the single
// goroutine folding every event into one collector, exactly what the
// seed's ntppool.Run did.
func BenchmarkIngestSerial(b *testing.B) {
	events := benchEvents(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := collector.New()
		for _, ev := range events {
			c.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
		}
		if c.NumAddrs() == 0 {
			b.Fatal("empty corpus")
		}
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkIngest measures the sharded pipeline end to end (producers,
// batching, shard workers, final merge) at increasing shard counts.
func BenchmarkIngest(b *testing.B) {
	events := benchEvents(b)
	for _, shards := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			producers := shards / 2
			if producers < 1 {
				producers = 1
			}
			if producers > 4 {
				producers = 4
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := New(DefaultConfig(shards))
				if err != nil {
					b.Fatal(err)
				}
				feedConcurrently(p, events, producers)
				merged := p.Close()
				if merged.TotalObservations() != uint64(len(events)) {
					b.Fatalf("lost events: %d != %d",
						merged.TotalObservations(), len(events))
				}
			}
			b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkIngestEnriched is BenchmarkIngest with the full enrichment
// stack (categories + HLL cardinality) inline, the shape a production
// vantage runs.
func BenchmarkIngestEnriched(b *testing.B) {
	events := benchEvents(b)
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(shards)
				cfg.Stages = []StageFactory{Categories(), Cardinality(14)}
				p, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				feedConcurrently(p, events, max(1, shards/2))
				p.Close()
			}
			b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkParseEventBytes is the zero-allocation claim of the wire
// parser, asserted, not just reported: decoding a representative event
// line straight from bytes must stay at 0 allocs/op (run with
// -benchmem to see the column; the body re-checks via ReportAllocs'
// underlying counters regardless).
func BenchmarkParseEventBytes(b *testing.B) {
	line := []byte("1643068800 2001:db8:85a3::8a2e:370:7334 26")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseEventBytes(line); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !raceEnabled && b.N > 100 {
		if avg := testing.AllocsPerRun(100, func() {
			_, _ = ParseEventBytes(line)
		}); avg != 0 {
			b.Fatalf("ParseEventBytes allocates %.1f/op, want 0", avg)
		}
	}
}

func feedConcurrently(p *Pipeline, events []Event, producers int) {
	var wg sync.WaitGroup
	chunk := (len(events) + producers - 1) / producers
	for pi := 0; pi < producers; pi++ {
		lo := pi * chunk
		hi := min(lo+chunk, len(events))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(part []Event) {
			defer wg.Done()
			bat := p.NewBatcher()
			for _, ev := range part {
				bat.Add(ev)
			}
			bat.Flush()
		}(events[lo:hi])
	}
	wg.Wait()
}

// BenchmarkTelemetryOverhead proves the per-shard/per-stage
// instrumentation budget: the telemetry=off variant runs the identical
// pipeline with the unexported noHotPathTelemetry knob set — the same
// loop shape minus the clock reads and histogram observations — so the
// events/sec delta between the two sub-benchmarks is exactly the
// observe-path cost of telemetry. The stage-major batch loop amortizes
// timing to two clock reads per stage per batch, which must keep the
// regression under 2%.
func BenchmarkTelemetryOverhead(b *testing.B) {
	events := benchEvents(b)
	for _, tc := range []struct {
		name string
		off  bool
	}{
		{"telemetry=off", true},
		{"telemetry=on", false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(4)
				cfg.Stages = []StageFactory{Categories(), Cardinality(14)}
				cfg.noHotPathTelemetry = tc.off
				p, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				feedConcurrently(p, events, 2)
				merged := p.Close()
				if merged.TotalObservations() != uint64(len(events)) {
					b.Fatalf("lost events: %d != %d",
						merged.TotalObservations(), len(events))
				}
			}
			b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
