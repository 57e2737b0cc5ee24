package simnet

import (
	"math/rand"
	"sync"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/rng"
)

// Query is one NTP request arriving at a pool server: the client's source
// address at the moment it asked for time.
type Query struct {
	Time   time.Time
	Addr   addr.Addr
	Device *Device
}

// GenerateQueries replays every device's NTP client behaviour across the
// study window, invoking fn for each query in per-device time order
// (queries of different devices are not globally ordered; the collector
// does not need them to be). Inter-query gaps are exponential around the
// device's rate, clamped to at least one minute, matching how NTP clients
// poll: sparse, bursty at boot, device-dependent.
//
// The callback receives the query's source address already resolved
// against prefix rotation, roaming and ephemeral-IID schedules.
func (w *World) GenerateQueries(fn func(Query)) {
	w.replays.Add(1)
	rnd := rand.New(rng.NewSource(0))
	for _, d := range w.devices {
		w.generateDeviceQueries(d, rnd, fn)
	}
}

// Replays returns how many times the world's query stream has been
// generated (GenerateQueries / GenerateQueriesParallel calls). Replays
// are the O(world) cost a single-pass architecture amortizes: the study
// asserts one replay feeds everything it reports — collection, outage
// detection, tracking and the backscan campaign alike.
func (w *World) Replays() uint64 { return w.replays.Load() }

// generateDeviceQueries replays one device's queries, reseeding rnd
// (a caller-owned stream, reused across devices) with the device's seed.
func (w *World) generateDeviceQueries(d *Device, rnd *rand.Rand, fn func(Query)) {
	if d.rate <= 0 || !d.usesPool {
		return
	}
	rnd.Seed(int64(hash2(d.seed, 0x47e9)))
	meanGap := time.Duration(float64(24*time.Hour) / d.rate)
	t := d.activeFrom
	// First query shortly after power-on (boot-time sync).
	t = t.Add(time.Duration(rnd.ExpFloat64() * float64(10*time.Minute)))
	for t.Before(d.activeTo) && t.Before(w.End) {
		if d.ActiveAt(t) {
			fn(Query{Time: t, Addr: d.AddressAt(t), Device: d})
		}
		gap := time.Duration(rnd.ExpFloat64() * float64(meanGap))
		if gap < time.Minute {
			gap = time.Minute
		}
		t = t.Add(gap)
	}
}

// CountQueries returns the number of queries GenerateQueries will emit;
// useful for sizing collectors up front in benchmarks.
func (w *World) CountQueries() int {
	n := 0
	w.GenerateQueries(func(Query) { n++ })
	return n
}

// GenerateQueriesParallel replays the query stream across shards
// goroutines, device-partitioned, invoking fn(shard, query) — each shard
// index is only ever used by one goroutine, so callers can keep
// lock-free per-shard state (e.g. one collector each) and merge after.
// The per-device query order is preserved within a shard. shards < 1 is
// treated as 1.
func (w *World) GenerateQueriesParallel(shards int, fn func(shard int, q Query)) {
	w.replays.Add(1)
	if shards < 1 {
		shards = 1
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			rnd := rand.New(rng.NewSource(0))
			for i := shard; i < len(w.devices); i += shards {
				w.generateDeviceQueries(w.devices[i], rnd, func(q Query) {
					fn(shard, q)
				})
			}
		}(s)
	}
	wg.Wait()
}
