package scan

import (
	"slices"
	"sort"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/rng"
	"hitlist6/internal/simnet"
)

// BackscanConfig mirrors the paper's §3 backscanning methodology: record
// NTP clients at a subset of vantage servers in 10-minute intervals, then
// probe each client address once per interval plus one random address in
// the client's /64 (the alias canary), all over ICMPv6.
type BackscanConfig struct {
	// Vantages are the collector server IDs participating (paper: 5 of 27).
	Vantages []int
	// Window is when the campaign runs.
	Start time.Time
	End   time.Time
	// Interval batches clients before probing (paper: 10 minutes).
	Interval time.Duration
	// Seed drives random-IID target generation.
	Seed int64
}

// DefaultBackscanConfig returns the paper's parameters over the given
// window: 5 vantages, 10-minute batches.
func DefaultBackscanConfig(start, end time.Time, seed int64) BackscanConfig {
	return BackscanConfig{
		Vantages: []int{0, 6, 8, 12, 20},
		Start:    start,
		End:      end,
		Interval: 10 * time.Minute,
		Seed:     seed,
	}
}

// BackscanOutcome is the probe pair result for one client in one interval.
type BackscanOutcome struct {
	Client          addr.Addr
	ClientResponded bool
	ClientAliased   bool // client probe answered by an aliased prefix
	Random          addr.Addr
	RandomResponded bool
	At              time.Time
}

// BackscanStats aggregates a campaign (§4.2's headline numbers).
type BackscanStats struct {
	ClientsProbed   int
	ClientResponses int
	RandomProbes    int
	RandomResponses int
	// AliasedPrefixes are /64s inferred aliased because a random IID
	// answered.
	AliasedPrefixes map[addr.Prefix64]struct{}
	// Outcomes holds every probe pair.
	Outcomes []BackscanOutcome
}

// ClientResponseRate returns the fraction of probed clients that answered
// (paper: about two thirds).
func (s *BackscanStats) ClientResponseRate() float64 {
	if s.ClientsProbed == 0 {
		return 0
	}
	return float64(s.ClientResponses) / float64(s.ClientsProbed)
}

// RandomResponseRate returns the fraction of random-IID probes answered
// (paper: 3.5%, almost all aliases).
func (s *BackscanStats) RandomResponseRate() float64 {
	if s.RandomProbes == 0 {
		return 0
	}
	return float64(s.RandomResponses) / float64(s.RandomProbes)
}

// Sighting is a query as a backscan campaign keeps it: its time in Unix
// nanoseconds and its source address, all Backscan reads. 24 bytes and
// no pointer, where a simnet.Query also holds its device.
type Sighting struct {
	At   int64
	Addr addr.Addr
}

// inWindow reports whether s falls inside [cfg.Start, cfg.End).
func (s Sighting) inWindow(cfg BackscanConfig) bool {
	return s.At >= cfg.Start.UnixNano() && s.At < cfg.End.UnixNano()
}

// BackscanClients is the campaign's recording half: of a query stream,
// in generation order, it keeps the sightings inside [cfg.Start,
// cfg.End) that the pool steers to a participating vantage, in input
// order. Each in-window sighting costs one pool Select, so the pool must
// be in the state the campaign starts from.
func BackscanClients(sightings []Sighting, pool PoolSelector, cfg BackscanConfig) []Sighting {
	var out []Sighting
	for _, q := range sightings {
		if q.inWindow(cfg) && slices.Contains(cfg.Vantages, pool.Select(q.Addr)) {
			out = append(out, q)
		}
	}
	return out
}

// Backscan is the campaign's probing half: it batches the recorded
// clients (BackscanClients' output) per interval of the window and
// probes each batch back at the interval's end, in canonical address
// order, each client plus one random address in its /64 as the alias
// canary. Clients outside [cfg.Start, cfg.End) are not probed.
//
// Within an interval no address is probed more than once, matching the
// paper's rate-limiting ("no IP was probed more than once during a 10
// minute interval").
func Backscan(w *simnet.World, clients []Sighting, cfg BackscanConfig) *BackscanStats {
	stats := &BackscanStats{AliasedPrefixes: make(map[addr.Prefix64]struct{})}
	src := rng.NewSource(cfg.Seed)

	// Order the (interval, client) pairs: the stream pairs each client with
	// its canary in this order, so it must not depend on the input's.
	type probe struct {
		k      int64 // interval index
		client addr.Addr
	}
	probes := make([]probe, 0, len(clients))
	for _, q := range clients {
		if q.inWindow(cfg) {
			probes = append(probes, probe{(q.At - cfg.Start.UnixNano()) / int64(cfg.Interval), q.Addr})
		}
	}
	sort.Slice(probes, func(i, j int) bool {
		if probes[i].k != probes[j].k {
			return probes[i].k < probes[j].k
		}
		return probes[i].client.Less(probes[j].client)
	})
	for i, pr := range probes {
		if i > 0 && probes[i-1] == pr {
			continue
		}
		client, probeAt := pr.client, cfg.Start.Add(time.Duration(pr.k+1)*cfg.Interval)
		res := w.Probe(client, probeAt)
		outcome := BackscanOutcome{
			Client:          client,
			ClientResponded: res.Responded,
			ClientAliased:   res.FromAlias,
			At:              probeAt,
		}
		stats.ClientsProbed++
		if res.Responded {
			stats.ClientResponses++
		}
		// The alias canary: a random IID in the same /64.
		randAddr := addr.FromParts(uint64(client.P64()), src.Uint64())
		if randAddr != client {
			rres := w.Probe(randAddr, probeAt)
			outcome.Random = randAddr
			outcome.RandomResponded = rres.Responded
			stats.RandomProbes++
			if rres.Responded {
				stats.RandomResponses++
				stats.AliasedPrefixes[randAddr.P64()] = struct{}{}
			}
		}
		stats.Outcomes = append(stats.Outcomes, outcome)
	}
	return stats
}

// PoolSelector abstracts the NTP pool's geo selection so scan does not
// import ntppool (which imports collector).
type PoolSelector interface {
	// Select returns the vantage server ID the pool steers a client to.
	Select(client addr.Addr) int
}

// AliasCanaries returns the n random IIDs an alias test draws from seed,
// in draw order. A campaign that tests one /64 under one seed in several
// rounds draws its canaries once and hands them to every DetectAlias.
func AliasCanaries(n int, seed int64) []uint64 {
	if n <= 0 {
		return nil
	}
	src := rng.NewSource(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = src.Uint64()
	}
	return out
}

// DetectAlias probes the canary IIDs within a /64 in order and infers
// aliasing when at least threshold respond (threshold <= 0 means all of
// them) — the standard alias-resolution pre-filter active campaigns run
// (§2.1, §4.2). It stops at the threshold-th hit, or as soon as the
// canaries left cannot reach the threshold; Probe is pure, so the
// verdict is the one probing every canary would give.
func DetectAlias(w *simnet.World, p addr.Prefix64, t time.Time, canaries []uint64, threshold int) bool {
	n := len(canaries)
	if n == 0 {
		return false
	}
	if threshold <= 0 {
		threshold = n
	}
	hits := 0
	for i, iid := range canaries {
		if hits+n-i < threshold {
			return false
		}
		if w.Probe(addr.FromParts(uint64(p), iid), t).Responded {
			hits++
			if hits >= threshold {
				return true
			}
		}
	}
	return false
}
