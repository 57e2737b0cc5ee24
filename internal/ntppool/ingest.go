package ntppool

import (
	"hitlist6/internal/ingest"
	"hitlist6/internal/simnet"
)

// RunIngest replays the world's NTP client behaviour through the pool
// into a sharded ingest pipeline: the concurrent successor to Run. The
// producer side (query generation, geo lookup, vantage selection, zone
// accounting) stays on one goroutine — Pool's round-robin state is
// deliberately sequential so vantage assignment is identical to Run's —
// while the per-sighting collector and enrichment work fans out across
// the pipeline's shards. The caller owns the pipeline: install stages
// before, Close after. The returned stats carry the producer-side
// tallies only; UniqueClients is left zero because it is unknowable
// until the final snapshots merge — derive it from the merged
// collector after Close (NumAddrs), as Study.CollectPassive does.
func RunIngest(w *simnet.World, p *Pool, pipe *ingest.Pipeline) RunStats {
	stats := RunStats{
		PerVantage: make([]uint64, len(p.vantages)),
		PerZone:    make(map[string]uint64),
	}
	b := pipe.NewBatcher()
	w.GenerateQueries(func(q simnet.Query) {
		country := w.Geo.Country(q.Addr)
		v := p.Select(country)
		stats.Queries++
		stats.PerVantage[v.ID]++
		stats.PerZone[VendorZone(q.Device.Kind)]++
		b.Add(ingest.Event{Addr: q.Addr, Time: q.Time.Unix(), Server: int32(v.ID)})
	})
	b.Flush()
	return stats
}

// MaterializeEvents replays the world once and returns the fully
// resolved event stream (vantage already assigned): the input for
// shard-equivalence tests and ingest benchmarks, and the writer side of
// ingestd's file format via Event.AppendText.
func MaterializeEvents(w *simnet.World, p *Pool) []ingest.Event {
	events := make([]ingest.Event, 0, 1024)
	w.GenerateQueries(func(q simnet.Query) {
		v := p.Select(w.Geo.Country(q.Addr))
		events = append(events, ingest.Event{
			Addr: q.Addr, Time: q.Time.Unix(), Server: int32(v.ID),
		})
	})
	return events
}
