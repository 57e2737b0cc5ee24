package simnet

import (
	"math/rand"
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
// generated (GenerateQueries calls). Replays are the O(world) cost a
// single-pass architecture amortizes: the study asserts one replay feeds
// everything it reports — collection, outage detection, tracking and
// the backscan campaign alike.
func (w *World) Replays() uint64 { return w.replays.Load() }

// generateDeviceQueries replays one device's queries, reseeding rnd
// (a caller-owned stream, reused across devices) with the device's seed.
// Time runs as an offset from Origin, exact because every time here is
// wall-clock only.
func (w *World) generateDeviceQueries(d *Device, rnd *rand.Rand, fn func(Query)) {
	if d.rate <= 0 || !d.usesPool {
		return
	}
	rnd.Seed(int64(hash2(d.seed, 0x47e9)))
	meanGap := time.Duration(float64(24*time.Hour) / d.rate)
	// First query shortly after power-on (boot-time sync).
	off := d.activeFrom.Sub(w.Origin) + time.Duration(rnd.ExpFloat64()*float64(10*time.Minute))
	end := minTime(d.activeTo, w.End).Sub(w.Origin)
	c := addrCursor{d: d, roam: epochClock{interval: w.cfg.RoamInterval},
		life: epochClock{interval: d.iidLifetime()}}
	for off < end {
		if a, ok := c.at(off); ok {
			fn(Query{Time: w.Origin.Add(off), Addr: a, Device: d})
		}
		gap := time.Duration(rnd.ExpFloat64() * float64(meanGap))
		if gap < time.Minute {
			gap = time.Minute
		}
		off += gap
	}
}
