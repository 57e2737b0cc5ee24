package scan

import (
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/simnet"
)

// PingResult is one ZMap6-style ICMPv6 echo outcome.
type PingResult struct {
	Target    addr.Addr
	Responded bool
	FromAlias bool
}

// ZMap6 is the stateless ICMPv6 echo scanner. Targets are visited in
// multiplicative-group permutation order, exactly as ZMap randomizes its
// probe order to spread load across networks.
type ZMap6 struct {
	World *simnet.World
	// Seed randomizes the probe permutation.
	Seed uint64
	// Stats accumulate across Scan calls.
	Sent, Received uint64
}

// Scan probes every target at time t and returns per-target results in
// permutation order.
func (z *ZMap6) Scan(targets []addr.Addr, t time.Time) ([]PingResult, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	pm, err := NewPermutation(uint64(len(targets)), z.Seed)
	if err != nil {
		return nil, err
	}
	out := make([]PingResult, 0, len(targets))
	for {
		i, ok := pm.Next()
		if !ok {
			break
		}
		tgt := targets[i]
		res := z.World.Probe(tgt, t)
		z.Sent++
		if res.Responded {
			z.Received++
		}
		out = append(out, PingResult{Target: tgt, Responded: res.Responded, FromAlias: res.FromAlias})
	}
	return out, nil
}

// Yarrp is the stateless randomized traceroute engine. It traces to each
// target and records every responding intermediate hop — this is how
// active campaigns discover core infrastructure the paper's Figure 1 shows
// as near-zero-entropy addresses.
type Yarrp struct {
	World *simnet.World
	// SourceASN is the vantage's origin AS.
	SourceASN uint32
	// Seed randomizes the target permutation.
	Seed uint64
	// Traces counts completed traces.
	Traces uint64
}

// TraceResult is one Yarrp trace.
type TraceResult struct {
	Target addr.Addr
	Hops   []simnet.Hop
}

// Trace runs traces to every target at time t, in permutation order.
func (y *Yarrp) Trace(targets []addr.Addr, t time.Time) ([]TraceResult, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	pm, err := NewPermutation(uint64(len(targets)), y.Seed)
	if err != nil {
		return nil, err
	}
	out := make([]TraceResult, 0, len(targets))
	for {
		i, ok := pm.Next()
		if !ok {
			break
		}
		tgt := targets[i]
		hops := y.World.TraceRoute(y.SourceASN, tgt, t)
		y.Traces++
		out = append(out, TraceResult{Target: tgt, Hops: hops})
	}
	return out, nil
}

// DiscoveredAddrs returns the set of unique addresses (hops and responding
// destinations) a trace campaign learned.
func DiscoveredAddrs(traces []TraceResult) map[addr.Addr]struct{} {
	out := make(map[addr.Addr]struct{})
	for _, tr := range traces {
		for _, h := range tr.Hops {
			out[h.Addr] = struct{}{}
		}
	}
	return out
}
