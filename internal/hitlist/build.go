package hitlist

import (
	"maps"
	"math/rand"
	"slices"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/rdns"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
	"hitlist6/internal/simnet"
	"hitlist6/internal/tga"
)

// FromRecords makes a passive corpus's addresses a Dataset, adopting its
// key column with no copy (Records.Keys: unique, sorted, capacity cut to
// length, so the dataset is sealed and an Add never writes the corpus).
func FromRecords(name string, r *collector.Records) *Dataset {
	return &Dataset{Name: name, addrs: r.Keys(), sealed: true}
}

// ActiveConfig parameterizes the IPv6-Hitlist-style active pipeline.
type ActiveConfig struct {
	// Rounds is the number of snapshot campaigns across the window
	// (the real Hitlist publishes weekly).
	Rounds int
	// Start/End bound the campaign window.
	Start, End time.Time
	// SourceASN is the measurement vantage's origin AS.
	SourceASN uint32
	// Seed drives scan permutations and target generation.
	Seed uint64
	// TGALowBytes is how many low-byte candidates (::1, ::2, ...) target
	// generation derives per discovered /64.
	TGALowBytes int
	// AliasProbes and AliasThreshold parameterize alias pre-filtering.
	AliasProbes, AliasThreshold int
	// UseEntropyIP enables the Entropy/IP-style target generation model
	// trained on each round's responsive set.
	UseEntropyIP bool
	// EntropyIPBudget is the candidate count per round for the model.
	EntropyIPBudget int
	// UseRDNS enables ip6.arpa NXDOMAIN tree-walk enumeration as a seed
	// source (Fiebig et al.).
	UseRDNS bool
	// RDNSQueryBudget bounds the DNS queries per round (0 = unlimited).
	RDNSQueryBudget uint64
}

// DefaultActiveConfig mirrors the Hitlist's cadence across a window.
func DefaultActiveConfig(start, end time.Time, seed uint64) ActiveConfig {
	return ActiveConfig{
		Rounds:          4,
		Start:           start,
		End:             end,
		SourceASN:       21928,
		Seed:            seed,
		TGALowBytes:     4,
		AliasProbes:     16,
		AliasThreshold:  12,
		UseEntropyIP:    true,
		EntropyIPBudget: 512,
		UseRDNS:         true,
		RDNSQueryBudget: 0,
	}
}

// ActiveResult is the output of the active pipeline: the hitlist plus its
// published alias list.
type ActiveResult struct {
	Dataset *Dataset
	Aliases *AliasList
	// ProbesSent counts every ICMPv6 probe the campaign emitted, for the
	// paper's active-vs-passive cost comparison.
	ProbesSent uint64
}

// BuildActiveHitlist runs the Gasser-et-al-style pipeline against the
// simulated Internet:
//
//  1. seed targets from public knowledge: router addresses (public
//     traceroute archives) and ::1 of every routed /48 (DNS/system lists);
//  2. Yarrp traces toward seeds, harvesting every responding hop (this is
//     where CPE WAN addresses surface);
//  3. target generation: low-byte candidates in every /64 learned so far;
//  4. ZMap6 verification of all candidates;
//  5. alias detection on responding /64s, publishing the alias list and
//     filtering aliased responses out of the hitlist.
//
// The result is infrastructure-heavy and client-poor — exactly the bias
// the paper demonstrates against its NTP corpus.
func BuildActiveHitlist(w *simnet.World, cfg ActiveConfig) (*ActiveResult, error) {
	res := &ActiveResult{
		Dataset: NewDataset("IPv6 Hitlist (simulated)"),
		Aliases: NewAliasList(),
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	window := cfg.End.Sub(cfg.Start)
	responsive := make(map[addr.Addr]struct{})
	// A /64's alias canaries depend on its seed alone: drawn once.
	canaries := make(map[addr.Prefix64][]uint64)

	// Loop-invariant seeds, built once: public traceroute archives
	// (routers) and systematic ::1 probing of routed /48s. The world's
	// router set and routing table do not change across rounds, and at
	// simulation scale re-deriving the /48 split every round dominated
	// campaign setup. Time-dependent sources (PublicSeeds, the rDNS tree
	// walk) stay inside the loop.
	staticSeeds := append([]addr.Addr(nil), w.Routers()...)
	for _, rp := range w.ASDB.RoutedPrefixes() {
		for _, p48 := range split48s(rp.Prefix, 64) {
			staticSeeds = append(staticSeeds, p48.Addr().WithIID(1))
		}
	}

	for round := 0; round < cfg.Rounds; round++ {
		at := cfg.Start.Add(window * time.Duration(round) / time.Duration(cfg.Rounds))

		// Step 1: seeds — the static sources above plus the DNS/
		// public-list snapshot (servers, dynamic-DNS CPE). The last
		// source is what gives the real Hitlist its CPE-and-server
		// middle ground.
		seeds := make([]addr.Addr, len(staticSeeds), len(staticSeeds)+256)
		copy(seeds, staticSeeds)
		seeds = append(seeds, w.PublicSeeds(at)...)
		if cfg.UseRDNS {
			// ip6.arpa tree walk over every routed prefix.
			zone := rdns.BuildZone(w, at)
			for _, rp := range w.ASDB.RoutedPrefixes() {
				seeds = append(seeds, rdns.Walk(zone, rp.Prefix, cfg.RDNSQueryBudget)...)
			}
		}

		// Step 2: Yarrp over the seeds.
		y := &scan.Yarrp{World: w, SourceASN: cfg.SourceASN, Seed: cfg.Seed + uint64(round)}
		traces, err := y.Trace(seeds, at)
		if err != nil {
			return nil, err
		}
		res.ProbesSent += y.Traces * 8 // ~8 TTL probes per trace
		discovered := scan.DiscoveredAddrs(traces)

		// Canonical views of the round's sets: everything that flows
		// into probe target lists or model training is ordered, so the
		// campaign's probe stream is identical run to run regardless of
		// map iteration order (the mapiter lint invariant).
		discSorted := sortedAddrs(discovered)
		respSorted := sortedAddrs(responsive)

		// Step 3: target generation from every /64 seen so far.
		p64s := make(map[addr.Prefix64]struct{})
		for _, a := range discSorted {
			p64s[a.P64()] = struct{}{}
		}
		for _, a := range respSorted {
			p64s[a.P64()] = struct{}{}
		}
		candidates := append([]addr.Addr(nil), discSorted...)
		for _, p := range slices.Sorted(maps.Keys(p64s)) {
			for lb := 1; lb <= cfg.TGALowBytes; lb++ {
				candidates = append(candidates, p.Addr().WithIID(addr.IID(lb)))
			}
		}

		// Step 3b: Entropy/IP-style model candidates, trained on what the
		// campaign believes is responsive so far. As on the real Internet,
		// the model inherits the training set's infrastructure bias and
		// hit rates are low — the ablation benchmarks quantify this.
		if cfg.UseEntropyIP && len(responsive)+len(discovered) >= 2 {
			train := make([]addr.Addr, 0, len(respSorted)+len(discSorted))
			train = append(train, respSorted...)
			train = append(train, discSorted...)
			if model, err := tga.NewEntropyIP(train); err == nil {
				rnd := rand.New(rng.NewSource(int64(cfg.Seed) + int64(round)))
				candidates = append(candidates, model.Generate(cfg.EntropyIPBudget, rnd)...)
			}
		}

		// Step 4: ZMap6 verification.
		z := &scan.ZMap6{World: w, Seed: cfg.Seed ^ uint64(round)<<8}
		results, err := z.Scan(candidates, at)
		if err != nil {
			return nil, err
		}
		res.ProbesSent += z.Sent
		for _, r := range results {
			if r.Responded {
				responsive[r.Target] = struct{}{}
			}
		}

		// Step 5: alias detection over responding /64s. responsive grew
		// in step 4, so the canonical view is rebuilt.
		hot := make(map[addr.Prefix64]int)
		for _, a := range sortedAddrs(responsive) {
			hot[a.P64()]++
		}
		for _, p := range slices.Sorted(maps.Keys(hot)) {
			if res.Aliases.Contains(p) {
				continue
			}
			c, ok := canaries[p]
			if !ok {
				c = scan.AliasCanaries(cfg.AliasProbes, int64(cfg.Seed)+int64(uint64(p)))
				canaries[p] = c
			}
			if scan.DetectAlias(w, p, at, c, cfg.AliasThreshold) {
				res.Aliases.Add(p)
			}
			// ProbesSent counts every canary: the modelled campaign sends
			// the ones DetectAlias skips too.
			res.ProbesSent += uint64(cfg.AliasProbes)
		}
	}

	// Publish: responsive addresses outside aliased prefixes.
	for _, a := range sortedAddrs(responsive) {
		if !res.Aliases.Contains(a.P64()) {
			res.Dataset.Add(a)
		}
	}
	return res, nil
}

// CAIDAConfig parameterizes the routed-/48 campaign.
type CAIDAConfig struct {
	// At is the (single) campaign date.
	At time.Time
	// SourceASN is the Ark vantage's origin AS.
	SourceASN uint32
	// Seed drives the target permutation.
	Seed uint64
	// MaxSplit48s caps the number of /48s probed per routed prefix
	// (0 = unlimited), bounding benchmark cost at large scales.
	MaxSplit48s int
}

// BuildCAIDA48 runs the CAIDA methodology (§3): split every routed prefix
// of length <= /48 into /48s — prefixes shorter than /32 get a single
// probe — and Yarrp to the ::1 of each. Discovered addresses are every
// responding hop plus responding destinations.
func BuildCAIDA48(w *simnet.World, cfg CAIDAConfig) (*Dataset, error) {
	var targets []addr.Addr
	for _, rp := range w.ASDB.RoutedPrefixes() {
		if rp.Prefix.Bits() < 32 {
			targets = append(targets, rp.Prefix.Addr().WithIID(1))
			continue
		}
		for _, p48 := range split48s(rp.Prefix, cfg.MaxSplit48s) {
			targets = append(targets, p48.Addr().WithIID(1))
		}
	}
	y := &scan.Yarrp{World: w, SourceASN: cfg.SourceASN, Seed: cfg.Seed}
	traces, err := y.Trace(targets, cfg.At)
	if err != nil {
		return nil, err
	}
	d := NewDataset("CAIDA routed /48 (simulated)")
	for _, a := range sortedAddrs(scan.DiscoveredAddrs(traces)) {
		d.Add(a)
	}
	return d, nil
}

// sortedAddrs renders an address set in canonical ascending order: the
// shape every probe target list and training set is built from, so
// active campaigns are reproducible run to run.
func sortedAddrs(set map[addr.Addr]struct{}) []addr.Addr {
	out := make([]addr.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	slices.SortFunc(out, func(x, y addr.Addr) int {
		switch {
		case x.Less(y):
			return -1
		case y.Less(x):
			return 1
		}
		return 0
	})
	return out
}

// split48s enumerates the /48s inside a prefix of length 32..48. limit
// caps the enumeration (0 = no cap).
func split48s(p addr.Prefix, limit int) []addr.Prefix48 {
	bits := p.Bits()
	if bits > 48 {
		return []addr.Prefix48{p.Addr().P48()}
	}
	n := 1 << (48 - bits)
	if limit > 0 && n > limit {
		n = limit
	}
	base := p.Addr().Hi()
	out := make([]addr.Prefix48, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, addr.Prefix48(base|uint64(i)<<16))
	}
	return out
}
