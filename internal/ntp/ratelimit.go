package ntp

import (
	"net/netip"
	"sync"
	"time"
)

// RateLimiter enforces a per-source minimum inter-query interval, the
// abuse control real pool servers run. Offenders receive a kiss-o'-death
// packet (stratum 0, refid "RATE", RFC 5905 §7.4) telling well-behaved
// clients to back off.
//
// State is a bounded LRU-ish table: at capacity, the stalest entry is
// evicted, so a spoofed-source flood cannot exhaust memory.
type RateLimiter struct {
	mu       sync.Mutex
	min      time.Duration
	capacity int
	last     map[netip.Addr]time.Time
}

// NewRateLimiter builds a limiter allowing one query per source per min
// interval, tracking at most capacity sources.
func NewRateLimiter(min time.Duration, capacity int) *RateLimiter {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &RateLimiter{
		min:      min,
		capacity: capacity,
		last:     make(map[netip.Addr]time.Time, capacity),
	}
}

// Allow reports whether a query from src at time t is within policy, and
// records the query.
func (rl *RateLimiter) Allow(src netip.Addr, t time.Time) bool {
	if rl.min <= 0 {
		return true
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	prev, seen := rl.last[src]
	if seen && t.Sub(prev) < rl.min {
		rl.last[src] = t // offenders keep resetting their window
		return false
	}
	if !seen && len(rl.last) >= rl.capacity {
		rl.evictStalest()
	}
	rl.last[src] = t
	return true
}

// evictStalest removes the entry with the oldest timestamp. Called with
// the lock held; linear scan is acceptable because eviction only happens
// at capacity and the table is bounded.
func (rl *RateLimiter) evictStalest() {
	var (
		victim netip.Addr
		oldest time.Time
		first  = true
	)
	for a, ts := range rl.last {
		if first || ts.Before(oldest) {
			victim, oldest, first = a, ts, false
		}
	}
	if !first {
		delete(rl.last, victim)
	}
}

// KoDRate is the refid of a rate-limiting kiss-o'-death packet ("RATE").
const KoDRate uint32 = 0x52415445

// NewKissOfDeath builds the stratum-0 RATE response for an over-limit
// client.
func NewKissOfDeath(req *Packet) Packet {
	return Packet{
		Leap:        LeapNotInSync,
		Version:     req.Version,
		Mode:        ModeServer,
		Stratum:     0,
		Poll:        req.Poll,
		ReferenceID: KoDRate,
		OriginTime:  req.TransmitTime,
	}
}
