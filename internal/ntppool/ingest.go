package ntppool

import (
	"hitlist6/internal/ingest"
	"hitlist6/internal/simnet"
)

// RunIngest replays the world's NTP client behaviour through the pool
// into a sharded ingest pipeline. The producer side (query generation,
// geo lookup, vantage selection, zone accounting) stays on one
// goroutine — Pool's round-robin state is deliberately sequential so
// vantage assignment is identical to a serial replay's — while the
// pipeline's shard workers fold the sightings into its one Store and
// run its enrichment stages. The caller owns the pipeline: install
// stages before, Close after. The returned stats carry the
// producer-side tallies only; the unique-client count is the corpus's
// NumAddrs.
// A non-nil tap sees every query after the pipeline, in generation
// order on the producer goroutine, so a raw-stream consumer needs no
// replay of its own.
func RunIngest(w *simnet.World, p *Pool, pipe *ingest.Pipeline, tap func(simnet.Query)) RunStats {
	stats := RunStats{
		PerVantage: make([]uint64, len(p.vantages)),
		PerZone:    make(map[string]uint64),
	}
	var perKind [simnet.NumDeviceKinds]uint64
	b := pipe.NewBatcher()
	// Consecutive queries mostly share a device and so a routed prefix:
	// the country comes from a memo, and the tier is resolved again only
	// when the country changes.
	geo := w.Geo.NewMemo()
	var country string
	var t *tier
	w.GenerateQueries(func(q simnet.Query) {
		if c, _ := geo.Lookup(q.Addr); t == nil || c != country {
			country, t = c, p.tierFor(c)
		}
		v := p.pick(t)
		stats.Queries++
		stats.PerVantage[v.ID]++
		perKind[q.Device.Kind]++
		b.Add(ingest.Event{Addr: q.Addr, Time: q.Time.Unix(), Server: int32(v.ID)})
		if tap != nil {
			tap(q)
		}
	})
	b.Flush()
	for k, n := range perKind {
		if n > 0 {
			stats.PerZone[VendorZone(simnet.DeviceKind(k))] += n
		}
	}
	return stats
}
