package ntppool

import (
	"time"

	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/simnet"
)

// This file holds the serial oracle for RunIngest: the single-goroutine
// replay the sharded driver must reproduce.

// Run replays the world's NTP client behaviour through the pool into the
// collector. An optional dayCollector receives only queries within
// [dayStart, dayStart+24h), reproducing the paper's single-day slice
// (1 July 2022) used by Figures 4b and 5.
func Run(w *simnet.World, p *Pool, c *collector.Collector,
	dayCollector *collector.Collector, dayStart time.Time) RunStats {

	stats := RunStats{
		PerVantage: make([]uint64, len(p.vantages)),
		PerZone:    make(map[string]uint64),
	}
	dayEnd := dayStart.Add(24 * time.Hour)
	w.GenerateQueries(func(q simnet.Query) {
		country := w.Geo.Country(q.Addr)
		v := p.Select(country)
		c.Observe(q.Addr, q.Time, v.ID)
		if dayCollector != nil && !q.Time.Before(dayStart) && q.Time.Before(dayEnd) {
			dayCollector.Observe(q.Addr, q.Time, v.ID)
		}
		stats.Queries++
		stats.PerVantage[v.ID]++
		stats.PerZone[VendorZone(q.Device.Kind)]++
	})
	return stats
}

// MaterializeEvents replays the world once and returns the fully
// resolved event stream (vantage already assigned).
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
