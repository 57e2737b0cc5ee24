package scan

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/simnet"
)

func TestIsPrimeKnownValues(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 11, 13, 101, 7919, 104729, 2147483647, 1000000007}
	for _, p := range primes {
		if !isPrime(p) {
			t.Errorf("isPrime(%d) = false", p)
		}
	}
	composites := []uint64{0, 1, 4, 9, 15, 100, 7917, 104730, 2147483647 * 3}
	for _, c := range composites {
		if isPrime(c) {
			t.Errorf("isPrime(%d) = true", c)
		}
	}
	// Strong pseudoprime to base 2: must be rejected by the full base set.
	if isPrime(3215031751) {
		t.Error("3215031751 is composite")
	}
}

func TestNextSafePrime(t *testing.T) {
	p, err := nextSafePrime(10)
	if err != nil {
		t.Fatal(err)
	}
	if p != 11 { // 11 = 2*5+1, both prime
		t.Errorf("nextSafePrime(10): got %d want 11", p)
	}
	p, err = nextSafePrime(100)
	if err != nil {
		t.Fatal(err)
	}
	if p != 107 {
		t.Errorf("nextSafePrime(100): got %d want 107", p)
	}
	if !isPrime(p) || !isPrime((p-1)/2) {
		t.Errorf("%d is not a safe prime", p)
	}
}

func TestPermutationVisitsAllExactlyOnce(t *testing.T) {
	for _, n := range []uint64{1, 2, 5, 16, 100, 1000, 4097} {
		pm, err := NewPermutation(n, 0xfeed)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[uint64]bool, n)
		for {
			v, ok := pm.Next()
			if !ok {
				break
			}
			if v >= n {
				t.Fatalf("n=%d: out of range value %d", n, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: value %d repeated", n, v)
			}
			seen[v] = true
		}
		if uint64(len(seen)) != n {
			t.Fatalf("n=%d: visited %d values", n, len(seen))
		}
	}
}

func TestPermutationSeedsDiffer(t *testing.T) {
	order := func(seed uint64) []uint64 {
		pm, err := NewPermutation(64, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for {
			v, ok := pm.Next()
			if !ok {
				break
			}
			out = append(out, v)
		}
		return out
	}
	a, b := order(1), order(99)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical orders")
	}
}

func TestPermutationReset(t *testing.T) {
	pm, err := NewPermutation(10, 7)
	if err != nil {
		t.Fatal(err)
	}
	var first []uint64
	for {
		v, ok := pm.Next()
		if !ok {
			break
		}
		first = append(first, v)
	}
	pm.Reset()
	for i := 0; ; i++ {
		v, ok := pm.Next()
		if !ok {
			break
		}
		if v != first[i] {
			t.Fatalf("reset replay diverged at %d", i)
		}
	}
}

func TestPermutationErrors(t *testing.T) {
	if _, err := NewPermutation(0, 1); err == nil {
		t.Error("n=0 should fail")
	}
}

// mulmodSlow is an overflow-safe double-and-add reference for mulmod.
// addMod computes (x+y) mod m without overflow for x, y < m.
func addMod(x, y, m uint64) uint64 {
	if x >= m-y {
		return x - (m - y)
	}
	return x + y
}

func mulmodSlow(a, b, m uint64) uint64 {
	var r uint64
	a %= m
	b %= m
	for b > 0 {
		if b&1 == 1 {
			r = addMod(r, a, m)
		}
		a = addMod(a, a, m)
		b >>= 1
	}
	return r
}

func TestMulmodMatchesAdditiveLadder(t *testing.T) {
	f := func(a, b uint64, mRaw uint64) bool {
		m := mRaw
		if m < 2 {
			m = 2
		}
		return mulmod(a, b, m) == mulmodSlow(a, b, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func tinyWorld(t testing.TB, seed int64) *simnet.World {
	t.Helper()
	cfg := simnet.DefaultConfig(seed, 0.03)
	cfg.Days = 20
	w, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestZMap6ScanRouters(t *testing.T) {
	w := tinyWorld(t, 31)
	z := &ZMap6{World: w, Seed: 5}
	tm := w.Origin.Add(time.Hour)
	routers := w.Routers()
	res, err := z.Scan(routers, tm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(routers) {
		t.Fatalf("results: %d want %d", len(res), len(routers))
	}
	resp := Responsive(res)
	if len(resp) != len(routers) {
		t.Errorf("responsive routers: %d/%d", len(resp), len(routers))
	}
	if z.Sent != uint64(len(routers)) || z.Received != uint64(len(routers)) {
		t.Errorf("stats: sent=%d received=%d", z.Sent, z.Received)
	}
}

func TestZMap6EmptyTargets(t *testing.T) {
	w := tinyWorld(t, 32)
	z := &ZMap6{World: w}
	res, err := z.Scan(nil, w.Origin)
	if err != nil || res != nil {
		t.Errorf("empty scan: %v, %v", res, err)
	}
}

func TestYarrpDiscoversInfrastructure(t *testing.T) {
	w := tinyWorld(t, 33)
	y := &Yarrp{World: w, SourceASN: 21928, Seed: 9}
	tm := w.Origin.Add(time.Hour)

	// Trace to the ::1 of some customer /48s (CAIDA style).
	var targets []addr.Addr
	for _, d := range w.Devices() {
		if len(targets) >= 50 {
			break
		}
		targets = append(targets, d.Prefix64At(tm).Addr().WithIID(1))
	}
	traces, err := y.Trace(targets, tm)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != len(targets) {
		t.Fatalf("traces: %d", len(traces))
	}
	disc := DiscoveredAddrs(traces)
	if len(disc) == 0 {
		t.Fatal("no addresses discovered")
	}
	// Discovered hop addresses must be dominated by low-entropy router
	// IIDs (Figure 1's CAIDA curve).
	low := 0
	for a := range disc {
		if a.IID().EntropyClass() == addr.LowEntropy {
			low++
		}
	}
	if low*2 < len(disc) {
		t.Errorf("only %d/%d discovered addresses are low entropy", low, len(disc))
	}
	if y.Traces != uint64(len(targets)) {
		t.Errorf("trace counter: %d", y.Traces)
	}
}

func TestDetectAlias(t *testing.T) {
	w := tinyWorld(t, 34)
	tm := w.Origin.Add(time.Hour)
	aliased := w.AliasedPrefixes()
	if len(aliased) == 0 {
		t.Fatal("no aliased prefixes")
	}
	if !DetectAlias(w, aliased[0], tm, AliasCanaries(16, 1), 16) {
		t.Error("aliased prefix not detected")
	}
	// A regular customer /64 must not be flagged.
	var normal addr.Prefix64
	for _, d := range w.Devices() {
		if !w.IsAliased(d.Prefix64At(tm)) {
			normal = d.Prefix64At(tm)
			break
		}
	}
	if DetectAlias(w, normal, tm, AliasCanaries(16, 1), 2) {
		t.Error("normal prefix flagged aliased")
	}
	if DetectAlias(w, aliased[0], tm, AliasCanaries(0, 1), 0) {
		t.Error("n=0 should never detect")
	}
}

// TestAliasCanariesPinned pins the canary draws to the values
// math/rand's source gives each seed, so memoising or re-drawing them
// can never move an alias verdict.
func TestAliasCanariesPinned(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want []uint64
	}{
		{1, []uint64{0x4d65822107fcfd52, 0x78629a0f5f3f164f, 0xd5104dc76695721d, 0xb80704bb7b4d7c03, 0x365a858149c6e2d1}},
		{-7, []uint64{0x8a5e41e14552000b, 0xe2520710aa2adde6, 0x6115c8521a52b428, 0x8b4e12409954e1fb, 0x269fc7bbbc7186f4}},
		{0x20010db800000001 + 0xac, []uint64{0xe63fbf502e3caa5c, 0xf50d60c5c2070d41, 0xf7c7ff8740fc3e4f, 0x2f0b0988995a3413, 0xbb3504c2a0997150}},
	} {
		if got := AliasCanaries(len(tc.want), tc.seed); !slices.Equal(got, tc.want) {
			t.Errorf("AliasCanaries(%d, %#x) = %#x, want %#x", len(tc.want), tc.seed, got, tc.want)
		}
		if got := AliasCanaries(0, tc.seed); got != nil {
			t.Errorf("AliasCanaries(0, %#x) = %#x, want none", tc.seed, got)
		}
	}
}

// canaryHits probes every canary in p and counts the answers.
func canaryHits(w *simnet.World, p addr.Prefix64, tm time.Time, canaries []uint64) int {
	hits := 0
	for _, iid := range canaries {
		if w.Probe(addr.FromParts(uint64(p), iid), tm).Responded {
			hits++
		}
	}
	return hits
}

// detectAliasAll is the alias test without its shortcuts: probe every
// canary, then compare the hits with the threshold.
func detectAliasAll(w *simnet.World, p addr.Prefix64, tm time.Time, canaries []uint64, threshold int) bool {
	if len(canaries) == 0 {
		return false
	}
	if threshold <= 0 {
		threshold = len(canaries)
	}
	return canaryHits(w, p, tm, canaries) >= threshold
}

// TestDetectAliasMatchesFullProbe holds DetectAlias's early exits to the
// probe-everything verdict for every canary count 0–16 and threshold
// 0..n+1, on an aliased /64 (every canary answers), a customer /64 and
// a router /64 of the infrastructure half. In the last two, some canaries
// are the IID of the host that answers there, so the hit counts fall
// between none and all.
func TestDetectAliasMatchesFullProbe(t *testing.T) {
	w := tinyWorld(t, 34)
	tm := w.Origin.Add(time.Hour)
	aliased := w.AliasedPrefixes()
	if len(aliased) == 0 {
		t.Fatal("no aliased prefixes")
	}
	router := w.Routers()[0]
	var client addr.Addr
	for _, d := range w.Devices() {
		if a := d.AddressAt(tm); w.Probe(a, tm).Responded && !w.IsAliased(a.P64()) {
			client = a
			break
		}
	}
	if client == (addr.Addr{}) {
		t.Fatal("no responsive customer address")
	}
	for _, tc := range []struct {
		name  string
		p     addr.Prefix64
		host  addr.IID // answers in p; the zero IID for none
		every int      // every every-th canary is host
	}{
		{"aliased", aliased[0], 0, 0},
		{"customer", client.P64(), client.IID(), 3},
		{"router", router.P64(), router.IID(), 2},
	} {
		canaries := AliasCanaries(16, int64(uint64(tc.p)))
		for i := range canaries {
			if tc.every > 0 && i%tc.every == 0 {
				canaries[i] = uint64(tc.host)
			}
		}
		hits := canaryHits(w, tc.p, tm, canaries)
		if tc.every > 0 && (hits == 0 || hits == len(canaries)) {
			t.Fatalf("%s: %d of %d canaries answer; the mixed case is vacuous", tc.name, hits, len(canaries))
		}
		for n := 0; n <= 16; n++ {
			for threshold := 0; threshold <= n+1; threshold++ {
				got := DetectAlias(w, tc.p, tm, canaries[:n], threshold)
				if want := detectAliasAll(w, tc.p, tm, canaries[:n], threshold); got != want {
					t.Errorf("%s: DetectAlias(n=%d, threshold=%d) = %v, probing every canary gives %v",
						tc.name, n, threshold, got, want)
				}
			}
		}
	}
}

type fixedSelector struct{ id int }

func (f fixedSelector) Select(addr.Addr) int { return f.id }

// backscanReplay records a campaign from a full replay of the world's
// queries and probes it back.
func backscanReplay(w *simnet.World, pool PoolSelector, cfg BackscanConfig) *BackscanStats {
	var queries []simnet.Query
	w.GenerateQueries(func(q simnet.Query) { queries = append(queries, q) })
	return Backscan(w, BackscanClients(queries, pool, cfg), cfg)
}

func TestBackscan(t *testing.T) {
	w := tinyWorld(t, 35)
	start := w.Origin.Add(5 * 24 * time.Hour)
	end := start.Add(24 * time.Hour)
	cfg := DefaultBackscanConfig(start, end, 77)
	// Route every query to vantage 0 so the campaign sees all clients.
	stats := backscanReplay(w, fixedSelector{0}, cfg)

	if stats.ClientsProbed == 0 {
		t.Fatal("no clients probed")
	}
	rate := stats.ClientResponseRate()
	if rate <= 0.3 || rate >= 0.95 {
		t.Errorf("client response rate %.2f outside plausible band", rate)
	}
	rr := stats.RandomResponseRate()
	if rr < 0 || rr > 0.3 {
		t.Errorf("random response rate %.3f implausible", rr)
	}
	// Every inferred aliased prefix must be ground-truth aliased.
	for p := range stats.AliasedPrefixes {
		if !w.IsAliased(p) {
			t.Errorf("false alias inference for %s", p)
		}
	}
	// Random hits imply alias inference.
	if stats.RandomResponses != 0 && len(stats.AliasedPrefixes) == 0 {
		t.Error("random responses but no aliased prefixes recorded")
	}
}

// TestBackscanDeterministic pins the campaign's reproducibility: one
// seed must pair the same clients with the same random canaries on
// every run, whatever order the clients arrive in. An implementation
// that probes in any but a canonical order (input order, a map's
// iteration order) consumes the rng differently — the regression this
// guards against.
func TestBackscanDeterministic(t *testing.T) {
	w := tinyWorld(t, 35)
	start := w.Origin.Add(5 * 24 * time.Hour)
	end := start.Add(24 * time.Hour)
	cfg := DefaultBackscanConfig(start, end, 77)
	var queries []simnet.Query
	w.GenerateQueries(func(q simnet.Query) { queries = append(queries, q) })
	clients := BackscanClients(queries, fixedSelector{0}, cfg)
	ref := Backscan(w, clients, cfg)
	if len(ref.Outcomes) == 0 {
		t.Fatal("no outcomes; determinism check vacuous")
	}
	for run := 0; run < 3; run++ {
		if run == 1 {
			slices.Reverse(clients)
		}
		got := Backscan(w, clients, cfg)
		if len(got.Outcomes) != len(ref.Outcomes) {
			t.Fatalf("run %d: %d outcomes, want %d", run, len(got.Outcomes), len(ref.Outcomes))
		}
		for i, o := range got.Outcomes {
			if o != ref.Outcomes[i] {
				t.Fatalf("run %d: outcome %d differs: %+v vs %+v", run, i, o, ref.Outcomes[i])
			}
		}
	}
}

func TestBackscanVantageFiltering(t *testing.T) {
	w := tinyWorld(t, 36)
	start := w.Origin.Add(5 * 24 * time.Hour)
	end := start.Add(12 * time.Hour)
	cfg := DefaultBackscanConfig(start, end, 1)
	// The participating vantages are 0, 6, 8, 12 and 20.
	all := backscanReplay(w, fixedSelector{0}, cfg)
	if all.ClientsProbed == 0 {
		t.Fatal("participating vantage saw nothing")
	}
	for _, v := range []int{1, 3} {
		if off := backscanReplay(w, fixedSelector{v}, cfg); off.ClientsProbed != 0 {
			t.Errorf("non-participating vantage %d probed %d clients", v, off.ClientsProbed)
		}
	}
}

// Reset restarts the iteration from the beginning.
func (pm *Permutation) Reset() {
	pm.cur = pm.first
	pm.done = false
}

// Responsive filters a result set down to the addresses that answered.
func Responsive(results []PingResult) []addr.Addr {
	var out []addr.Addr
	for _, r := range results {
		if r.Responded {
			out = append(out, r.Target)
		}
	}
	return out
}
