package hitlist6

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index) and reports the
// headline statistics via b.ReportMetric, so `go test -bench .` doubles as
// the reproduction run. Absolute values differ from the paper — the
// substrate is a simulator, not 27 VPSs — but the shape (who wins, by
// what order of magnitude, where the distributions sit) is the claim
// under test.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/analysis"
	"hitlist6/internal/asdb"
	"hitlist6/internal/collector"
	"hitlist6/internal/geodb"
	hitlistpkg "hitlist6/internal/hitlist"
	"hitlist6/internal/ntp"
	"hitlist6/internal/oui"
	"hitlist6/internal/outage"
	"hitlist6/internal/rdns"
	"hitlist6/internal/scan"
	"hitlist6/internal/stats"
	"hitlist6/internal/tga"
	"hitlist6/internal/tracking"
)

// benchStudy is built once and shared: the benchmarks measure the
// experiment computations, not repeated world construction.
var (
	benchOnce sync.Once
	benchS    *Study
	benchErr  error
	benchBS   *scan.BackscanStats
)

func benchConfig() Config {
	return Config{
		Seed:          42,
		Scale:         0.25,
		Days:          120,
		SliceDay:      80,
		HitlistRounds: 3,
		BackscanDays:  3,
	}
}

func sharedStudy(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() {
		s, err := NewStudy(benchConfig())
		if err != nil {
			benchErr = err
			return
		}
		if err := s.Run(); err != nil {
			benchErr = err
			return
		}
		benchS = s
		benchBS, benchErr = s.Backscan()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchS
}

// ---- Pipeline benchmarks ----

func BenchmarkWorldBuild(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s, err := NewStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = s
	}
}

func BenchmarkPassiveCollection(b *testing.B) {
	cfg := benchConfig()
	s, err := NewStudy(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.CollectPassive(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Collector.NumAddrs()), "addrs")
	b.ReportMetric(float64(s.RunStats.Queries), "queries")
}

func BenchmarkActiveHitlistBuild(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.BuildActive(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Hitlist.Dataset.Len()), "hitlist_addrs")
	b.ReportMetric(float64(s.CAIDA.Len()), "caida_addrs")
}

// ---- Table 1 / Table 2 ----

func BenchmarkTable1DatasetComparison(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	var t1 *analysis.Table1
	for i := 0; i < b.N; i++ {
		var err error
		t1, err = s.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t1.NTP.Addrs), "ntp_addrs")
	b.ReportMetric(float64(t1.Hitlist.Addrs), "hitlist_addrs")
	b.ReportMetric(float64(t1.CAIDA.Addrs), "caida_addrs")
	b.ReportMetric(t1.NTP.AvgPer48, "ntp_avg_per_48")
}

func BenchmarkTable2Manufacturers(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	var rows []tracking.VendorRow
	for i := 0; i < b.N; i++ {
		tr, err := s.Tracking()
		if err != nil {
			b.Fatal(err)
		}
		rows = tr.Table2()
	}
	if len(rows) > 0 {
		b.ReportMetric(float64(rows[0].Count), "top_vendor_macs")
	}
}

// ---- Figures ----

func BenchmarkFigure1EntropyCDF(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	var f1 *analysis.Figure1
	for i := 0; i < b.N; i++ {
		var err error
		f1, err = s.Figure1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f1.NTP.Median(), "ntp_median_entropy")
	b.ReportMetric(f1.Hitlist.Median(), "hitlist_median_entropy")
	b.ReportMetric(f1.CAIDA.Median(), "caida_median_entropy")
}

func BenchmarkFigure2aLifetimes(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	var f *analysis.Figure2a
	for i := 0; i < b.N; i++ {
		var err error
		f, err = s.Figure2a()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.ObservedOnce, "observed_once_frac")
	b.ReportMetric(f.WeekOrLonger, "week_plus_frac")
}

func BenchmarkFigure2bIIDLifetimes(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	var f *analysis.Figure2b
	for i := 0; i < b.N; i++ {
		var err error
		f, err = s.Figure2b()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.WeekOrLonger[addr.LowEntropy], "low_entropy_week_plus")
	b.ReportMetric(f.WeekOrLonger[addr.HighEntropy], "high_entropy_week_plus")
}

func BenchmarkFigure3Backscan(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	var hit, miss, random []float64
	for i := 0; i < b.N; i++ {
		hit, miss, random = Figure3(benchBS)
	}
	b.ReportMetric(stats.NewDistribution(hit).Median(), "hit_median_entropy")
	b.ReportMetric(stats.NewDistribution(miss).Median(), "miss_median_entropy")
	_ = random
	_ = s
}

func BenchmarkFigure4aASEntropy(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	var rows []analysis.ASEntropy
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure4a(5)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(float64(rows[0].Count), "top_as_addrs")
		b.ReportMetric(rows[0].Dist.Median(), "top_as_median_entropy")
	}
}

func BenchmarkFigure4bASEntropyDay(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure4b(5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5Categories(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	var f5 *analysis.Figure5
	for i := 0; i < b.N; i++ {
		var err error
		f5, err = s.Figure5()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f5.NTP.Fractions[addr.CatHighEntropy], "ntp_high_entropy_frac")
	b.ReportMetric(f5.Hitlist.Fractions[addr.CatLowByte], "hitlist_low_byte_frac")
}

func BenchmarkFigure7Timelines(b *testing.B) {
	s := sharedStudy(b)
	tr, err := s.Tracking()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		for c := tracking.PrefixReassignment; c < tracking.NumClasses; c++ {
			if ex := tr.Exemplar(c); ex != nil {
				n += len(tracking.Timeline(ex, s.World.ASDB))
			}
		}
	}
	b.ReportMetric(float64(n)/float64(b.N), "timeline_entries")
}

// ---- Section-level experiments ----

func BenchmarkSection42AliasDiscovery(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	var bs *scan.BackscanStats
	for i := 0; i < b.N; i++ {
		var err error
		bs, err = s.Backscan()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bs.ClientResponseRate(), "client_response_rate")
	b.ReportMetric(bs.RandomResponseRate(), "random_response_rate")
	b.ReportMetric(float64(len(bs.AliasedPrefixes)), "aliased_p64s")
}

func BenchmarkSection52TrackingClasses(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	var tr *tracking.Analysis
	for i := 0; i < b.N; i++ {
		var err error
		tr, err = s.Tracking()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Trackable), "trackable_macs")
	b.ReportMetric(tr.ClassShare(tracking.MostlyStatic), "static_share")
	b.ReportMetric(tr.UnlistedShare(), "unlisted_share")
}

func BenchmarkSection53Geolocation(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	var g *GeolocationResult
	for i := 0; i < b.N; i++ {
		var err error
		g, err = s.Geolocation(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(g.Located)), "geolocated_devices")
	b.ReportMetric(float64(len(g.Offsets)), "ouis_with_offsets")
}

// ---- Ablations (DESIGN.md §4) ----

// BenchmarkAblationPermutationGroup measures ZMap's multiplicative-group
// iteration; BenchmarkAblationPermutationShuffle the naive alternative
// that must materialize and shuffle the whole target list.
func BenchmarkAblationPermutationGroup(b *testing.B) {
	const n = 1 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pm, err := scan.NewPermutation(n, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		var sum uint64
		for {
			v, ok := pm.Next()
			if !ok {
				break
			}
			sum += v
		}
		if sum != n*(n-1)/2 {
			b.Fatal("bad permutation sum")
		}
	}
}

func BenchmarkAblationPermutationShuffle(b *testing.B) {
	const n = 1 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx := make([]uint64, n)
		for j := range idx {
			idx[j] = uint64(j)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		rng.Shuffle(n, func(a, c int) { idx[a], idx[c] = idx[c], idx[a] })
		var sum uint64
		for _, v := range idx {
			sum += v
		}
		if sum != n*(n-1)/2 {
			b.Fatal("bad shuffle sum")
		}
	}
}

// BenchmarkAblationAddressSet* compares the comparable-array map key the
// collector uses against string keys.
func BenchmarkAblationAddressSetArrayKey(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]addr.Addr, 1<<16)
	for i := range addrs {
		addrs[i] = addr.FromParts(rng.Uint64(), rng.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := make(map[addr.Addr]struct{}, len(addrs))
		for _, a := range addrs {
			m[a] = struct{}{}
		}
		if len(m) != len(addrs) {
			b.Fatal("collision")
		}
	}
}

func BenchmarkAblationAddressSetStringKey(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]addr.Addr, 1<<16)
	for i := range addrs {
		addrs[i] = addr.FromParts(rng.Uint64(), rng.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := make(map[string]struct{}, len(addrs))
		for _, a := range addrs {
			m[string(a[:])] = struct{}{}
		}
		if len(m) != len(addrs) {
			b.Fatal("collision")
		}
	}
}

// BenchmarkAblationEntropy* compares the table-backed nibble entropy used
// everywhere against a direct math.Log2 implementation.
func BenchmarkAblationEntropyTable(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	iids := make([]addr.IID, 4096)
	for i := range iids {
		iids[i] = addr.IID(rng.Uint64())
	}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += iids[i%len(iids)].NormalizedEntropy()
	}
	_ = acc
}

func BenchmarkAblationEntropyDirect(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	iids := make([]uint64, 4096)
	for i := range iids {
		iids[i] = rng.Uint64()
	}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += directEntropy(iids[i%len(iids)])
	}
	_ = acc
}

// directEntropy is the naive per-call math.Log2 formulation.
func directEntropy(v uint64) float64 {
	var counts [16]int
	for i := 0; i < 16; i++ {
		counts[v&0xf]++
		v >>= 4
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / 16
		h -= p * log2(p)
	}
	return h / 4
}

func log2(x float64) float64 {
	// Local shim to keep math out of the hot benchmark loop shape.
	return mathLog2(x)
}

// BenchmarkAblationNTPTransport* compares the in-process NTP exchange the
// simulator uses against a real UDP loopback round trip.
func BenchmarkAblationNTPTransportInProcess(b *testing.B) {
	now := time.Now()
	var buf [ntp.PacketSize]byte
	for i := 0; i < b.N; i++ {
		req := ntp.NewClientRequest(now)
		if _, err := req.SerializeTo(buf[:]); err != nil {
			b.Fatal(err)
		}
		var decoded ntp.Packet
		if err := decoded.DecodeFromBytes(buf[:]); err != nil {
			b.Fatal(err)
		}
		reply := ntp.NewServerReply(&decoded, now, now, 2, 0x42)
		if _, err := reply.SerializeTo(buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNTPTransportUDP(b *testing.B) {
	srv, err := ntp.NewServer(ntp.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		b.Skipf("cannot bind: %v", err)
	}
	defer srv.Close()
	addrStr := srv.LocalAddr().String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ntp.Query(addrStr, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// mathLog2 isolates the math import for the ablation shim.
func mathLog2(x float64) float64 { return math.Log2(x) }

// ---- Extension benchmarks: TGA, rDNS, outage detection ----

// BenchmarkAblationHitlistSourcesFull measures the active pipeline with
// every discovery source enabled (rDNS walk + Entropy/IP TGA), and
// BenchmarkAblationHitlistSourcesBase with only traceroute seeds, so the
// marginal yield of each source is visible in the reported metrics.
func BenchmarkAblationHitlistSourcesFull(b *testing.B) {
	s := sharedStudy(b)
	cfg := hitlistpkg.DefaultActiveConfig(s.World.Origin, s.World.End, 99)
	cfg.Rounds = 2
	b.ResetTimer()
	var res *hitlistpkg.ActiveResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = hitlistpkg.BuildActiveHitlist(s.World, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Dataset.Len()), "addrs_discovered")
	b.ReportMetric(float64(res.ProbesSent), "probes_sent")
}

func BenchmarkAblationHitlistSourcesBase(b *testing.B) {
	s := sharedStudy(b)
	cfg := hitlistpkg.DefaultActiveConfig(s.World.Origin, s.World.End, 99)
	cfg.Rounds = 2
	cfg.UseEntropyIP = false
	cfg.UseRDNS = false
	b.ResetTimer()
	var res *hitlistpkg.ActiveResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = hitlistpkg.BuildActiveHitlist(s.World, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Dataset.Len()), "addrs_discovered")
	b.ReportMetric(float64(res.ProbesSent), "probes_sent")
}

// BenchmarkRDNSWalk measures the ip6.arpa NXDOMAIN tree walk over every
// routed prefix, reporting the per-record query cost.
func BenchmarkRDNSWalk(b *testing.B) {
	s := sharedStudy(b)
	at := s.World.Origin.Add(24 * time.Hour)
	zone := rdns.BuildZone(s.World, at)
	prefixes := s.World.ASDB.RoutedPrefixes()
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		zone.Queries = 0
		found = 0
		for _, rp := range prefixes {
			found += len(rdns.Walk(zone, rp.Prefix, 0))
		}
	}
	b.ReportMetric(float64(found), "ptr_records")
	if found > 0 {
		b.ReportMetric(float64(zone.Queries)/float64(found), "queries_per_record")
	}
}

// BenchmarkRDNSBuildWalk measures one active round's rDNS work: building
// the zone and walking every routed prefix.
func BenchmarkRDNSBuildWalk(b *testing.B) {
	s := sharedStudy(b)
	at := s.World.Origin.Add(24 * time.Hour)
	prefixes := s.World.ASDB.RoutedPrefixes()
	b.ReportAllocs()
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		zone := rdns.BuildZone(s.World, at)
		found = 0
		for _, rp := range prefixes {
			found += len(rdns.Walk(zone, rp.Prefix, 0))
		}
	}
	b.ReportMetric(float64(found), "ptr_records")
}

// BenchmarkTGAEntropyIP measures model training plus candidate generation
// on the passive corpus.
func BenchmarkTGAEntropyIP(b *testing.B) {
	s := sharedStudy(b)
	seeds := s.NTP.Addrs()
	if len(seeds) > 4096 {
		seeds = seeds[:4096]
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := tga.NewEntropyIP(seeds)
		if err != nil {
			b.Fatal(err)
		}
		if got := model.Generate(1024, rng); len(got) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkOutageDetection measures the replay-based outage path:
// binning the full query stream plus detection.
func BenchmarkOutageDetection(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	var events []outage.Event
	for i := 0; i < b.N; i++ {
		series, err := outage.BuildSeries(s.World, 6*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		events = outage.Detect(series, outage.DefaultConfig())
	}
	b.ReportMetric(float64(len(events)), "events")
}

// BenchmarkDatasetSerialization measures the delta-varint dataset codec.
func BenchmarkDatasetSerialization(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	var encoded int64
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		n, err := s.NTP.WriteTo(&buf)
		if err != nil {
			b.Fatal(err)
		}
		encoded = n
		if _, err := hitlistpkg.ReadDataset(&buf); err != nil {
			b.Fatal(err)
		}
	}
	if s.NTP.Len() > 0 {
		b.ReportMetric(float64(encoded)/float64(s.NTP.Len()), "bytes_per_addr")
	}
}

// ---- Parallel analysis engine ----

// benchEngine is the paper-shaped ~1M-address fixture for BenchmarkReport:
// a synthetic corpus with the corpus's structural mix (random, low-byte,
// EUI-64 and v4-embedded IIDs over a few hundred ASes, ~20% repeat
// sightings) plus the four datasets the report reads. Built once; the
// benchmark measures the read side only.
var (
	benchEngineOnce sync.Once
	benchEngine     struct {
		db    *asdb.DB
		col   *collector.Records
		iids  *collector.IIDTable
		ntp   *hitlistpkg.Dataset
		day   *hitlistpkg.Dataset
		hl    *hitlistpkg.Dataset
		caida *hitlistpkg.Dataset
	}
)

func engineFixture(b *testing.B) {
	b.Helper()
	benchEngineOnce.Do(func() {
		const nASes = 256
		db := asdb.NewDB()
		types := []asdb.ASType{asdb.TypeISP, asdb.TypePhoneProvider, asdb.TypeHosting,
			asdb.TypeEducation, asdb.TypeEnterprise}
		for i := 0; i < nASes; i++ {
			p := addr.MustParsePrefix(fmt.Sprintf("2001:%x::/32", 0x1000+i))
			if err := db.AddAS(asdb.AS{
				ASN: asdb.ASN(1000 + i), Name: fmt.Sprintf("AS%d", 1000+i),
				Country: "DE", Type: types[i%len(types)],
				Prefixes: []addr.Prefix{p},
			}); err != nil {
				panic(err)
			}
		}
		benchEngine.db = db

		const nAddrs = 1_000_000
		rng := rand.New(rand.NewSource(1))
		col := collector.New()
		base := time.Date(2022, 1, 25, 0, 0, 0, 0, time.UTC)
		addrs := make([]addr.Addr, 0, nAddrs)
		for i := 0; i < nAddrs; i++ {
			as := rng.Intn(nASes)
			hi := 0x2001_0000_0000_0000 | uint64(0x1000+as)<<32 | uint64(rng.Intn(4096))<<16
			var lo uint64
			switch r := rng.Intn(100); {
			case r < 60: // fully random IIDs (the corpus's bulk)
				lo = rng.Uint64()
			case r < 75: // low-byte
				lo = uint64(rng.Intn(256) + 1)
			case r < 90: // low-4-byte randomization
				lo = uint64(rng.Uint32())
			case r < 97: // EUI-64
				mac := uint64(rng.Intn(1 << 20))
				lo = (mac&0xffffff)<<40 | 0xfffe<<24 | (mac >> 24 & 0xffffff) | 0x0200_0000_0000_0000
			default: // v4-embedded
				lo = 0xc0a8_0000 | uint64(rng.Intn(1<<16))
			}
			a := addr.FromParts(hi, lo)
			addrs = append(addrs, a)
			ts := base.Add(time.Duration(rng.Intn(200*24*3600)) * time.Second)
			col.Observe(a, ts, rng.Intn(27))
			if rng.Intn(5) == 0 { // repeat sighting: nonzero lifetime
				col.Observe(a, ts.Add(time.Duration(rng.Intn(40*24*3600))*time.Second), rng.Intn(27))
			}
		}
		benchEngine.col = col.TakeRecords()
		benchEngine.iids = benchEngine.col.IIDTable()
		benchEngine.ntp = hitlistpkg.FromRecords("NTP (bench)", benchEngine.col)

		day := hitlistpkg.NewDataset("NTP day (bench)")
		hl := hitlistpkg.NewDataset("Hitlist (bench)")
		caida := hitlistpkg.NewDataset("CAIDA (bench)")
		for i, a := range addrs {
			if i%10 == 0 {
				day.Add(a)
			}
			if i%5 == 0 {
				hl.Add(a)
			}
			if i%20 == 0 {
				caida.Add(a)
			}
		}
		benchEngine.day = day
		benchEngine.hl = hl
		benchEngine.caida = caida
	})
}

// BenchmarkReport measures report generation on the parallel fold
// engine, serial baseline first.
//
// engine-1M is the acceptance benchmark: the full analysis suite —
// sidecar builds, Table 1, Figures 1/2/4/5, strategy inference, EUI-64
// tracking, HLL — over the paper-shaped ~1M-address fixture, at 1 vs 8
// workers (compare ns/op between the workers=1 and workers=8 rows of
// this bench file; single-core CI runners will show no wall-clock win).
//
// full runs Study.Report() end to end on the shared simulated study:
// the same worker sweep including the world-bound sections (backscan,
// geolocation) the engine cannot parallelize away.
func BenchmarkReport(b *testing.B) {
	b.Run("engine-1M", func(b *testing.B) {
		engineFixture(b)
		geo := geodb.FromASDB(benchEngine.db)
		reg := oui.NewRegistry(0)
		for _, workers := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					scNTP := analysis.BuildSidecar(benchEngine.ntp, benchEngine.db, workers)
					scHL := analysis.BuildSidecar(benchEngine.hl, benchEngine.db, workers)
					scCAIDA := analysis.BuildSidecar(benchEngine.caida, benchEngine.db, workers)
					scDay := analysis.BuildSidecar(benchEngine.day, benchEngine.db, workers)
					t1 := analysis.ComputeTable1Sidecar(scNTP, scHL, scCAIDA, workers)
					f1 := analysis.ComputeFigure1Sidecar(scNTP, scHL, scCAIDA, workers)
					f2a := analysis.ComputeFigure2aWorkers(benchEngine.col, workers)
					f2b := analysis.ComputeFigure2bWorkers(benchEngine.iids, workers)
					f4a := analysis.TopASEntropySidecar(scNTP, benchEngine.db, 5, workers)
					f4b := analysis.TopASEntropySidecar(scDay, benchEngine.db, 5, workers)
					strat := analysis.InferStrategiesSidecar(scNTP, benchEngine.db, 6, workers)
					f5 := analysis.ComputeFigure5Sidecar(scDay, scHL, workers)
					share := analysis.ASTypeShareSidecar(scNTP, workers)
					tr := tracking.AnalyzeWorkers(benchEngine.iids, benchEngine.db, geo, reg, workers)
					if t1.NTP.Addrs == 0 || f1.NTP.N() == 0 || f2a.ObservedOnce == 0 ||
						len(f2b.ByClass) == 0 || len(f4a) == 0 || len(f4b) == 0 ||
						len(strat) == 0 || f5.NTP.Total == 0 || len(share) == 0 ||
						len(tr.MACs) == 0 {
						b.Fatal("degenerate engine result")
					}
				}
				b.ReportMetric(float64(benchEngine.ntp.Len()), "addrs")
			})
		}
	})

	b.Run("full", func(b *testing.B) {
		s := sharedStudy(b)
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
				s.Config.AnalysisWorkers = workers
				defer func() { s.Config.AnalysisWorkers = 0 }()
				var rep string
				for i := 0; i < b.N; i++ {
					var err error
					rep, err = s.Report()
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(rep)), "report_bytes")
			})
		}
	})
}
