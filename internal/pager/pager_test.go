package pager

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/telemetry"
)

// tmix is SplitMix64 over a fixed stream: the test's deterministic
// entropy, independent of the bloom filter's mixer.
func tmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// genEvent is a pure function of the event index: ~97 /64 prefixes
// crossed with ~700 shared IIDs (promoted, multi-span) plus a stream of
// one-off IIDs (singletons), ascending timestamps, 8 servers.
func genEvent(i int) (addr.Addr, int64, int) {
	h := tmix(uint64(i))
	hi := uint64(0x20010db8)<<32 | (h%97)<<4
	var lo uint64
	if h%11 == 0 {
		lo = tmix(uint64(i) ^ 0xdeadbeef) // one-off IID
	} else {
		lo = tmix((h >> 7) % 701) // shared IID pool
	}
	if lo%5 == 0 {
		lo = lo&^(uint64(0xffff)<<24) | uint64(0xfffe)<<24 // EUI-64 shape
	}
	return addr.FromParts(hi, lo), int64(1_600_000_000 + i*13), int(h % 8)
}

func feedEvents(c *collector.Collector, lo, hi int) {
	for i := lo; i < hi; i++ {
		a, ts, srv := genEvent(i)
		c.ObserveUnix(a, ts, srv)
	}
}

func buildCorpus(tb testing.TB, events int) *collector.Collector {
	tb.Helper()
	c := collector.New()
	feedEvents(c, 0, events)
	return c
}

func writeTierFile(tb testing.TB, c *collector.Collector) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "corpus.tier")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := WriteTier(c, f); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

func openOrDie(tb testing.TB, path string, o Options) *Corpus {
	tb.Helper()
	if o.Metrics == nil {
		o.Metrics = NewMetrics(telemetry.NewRegistry())
	}
	pc, err := Open(path, o)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { pc.Close() })
	return pc
}

const chunkBytes = int64(TierChunkRecs) * tierRecWire

// The pager's integrity bar, held by the tests rather than by library
// code: a tier must hand back exactly the records of the collector it
// was written from. recDigest hashes a canonical-order sequence of
// records; lookupSum takes it over the tier's answers for the
// collector's addresses, corpusSum over the collector's own records.
type recDigest struct {
	h   hash.Hash
	buf []byte
}

func newRecDigest() *recDigest { return &recDigest{h: sha256.New()} }

func (d *recDigest) add(a addr.Addr, r collector.AddrRecord) bool {
	d.buf = collector.AppendAddrRecord(d.buf[:0], a, r)
	d.h.Write(d.buf)
	return true
}

func (d *recDigest) sum() (out [32]byte) {
	copy(out[:], d.h.Sum(nil))
	return out
}

// lookupSum looks every address of c up in pc, in canonical order, and
// digests the answers — a miss as a zero record, which no address
// holds. It equals corpusSum(c) exactly when pc answers c's record for
// each of c's addresses. The first lookup error ends it.
func lookupSum(pc *Corpus, c *collector.Collector) ([32]byte, error) {
	d := newRecDigest()
	for a := range c.CanonicalOrder() {
		r, _, err := pc.Get(a)
		if err != nil {
			return d.sum(), err
		}
		d.add(a, r)
	}
	return d.sum(), nil
}

func corpusSum(c *collector.Collector) [32]byte {
	d := newRecDigest()
	c.CanonicalOrder()(d.add)
	return d.sum()
}

func TestTierRoundTrip(t *testing.T) {
	c := buildCorpus(t, 30000)
	path := writeTierFile(t, c)
	met := NewMetrics(telemetry.NewRegistry())
	pc := openOrDie(t, path, Options{Metrics: met})

	if pc.NumAddrs() != c.NumAddrs() {
		t.Fatalf("tier holds %d addrs, collector %d", pc.NumAddrs(), c.NumAddrs())
	}
	if pc.TotalObservations() != c.TotalObservations() {
		t.Fatalf("tier total %d, collector %d", pc.TotalObservations(), c.TotalObservations())
	}
	if pc.NumChunks() != (c.NumAddrs()+TierChunkRecs-1)/TierChunkRecs {
		t.Fatalf("tier cut %d chunks for %d addrs", pc.NumChunks(), c.NumAddrs())
	}
	// Every record must match; with the counts equal, every address
	// found means the tier holds the collector's set.
	scanned := 0
	c.CanonicalOrder()(func(a addr.Addr, want collector.AddrRecord) bool {
		got, ok, err := pc.Get(a)
		if err != nil {
			t.Fatalf("Get(%v): %v", a, err)
		}
		if !ok || got != want {
			t.Fatalf("Get(%v) = %+v, %v; want %+v", a, got, ok, want)
		}
		scanned++
		return true
	})
	if scanned != c.NumAddrs() {
		t.Fatalf("scanned %d of %d", scanned, c.NumAddrs())
	}
	if loads := met.Loads.Value(); loads < uint64(pc.NumChunks()) {
		t.Fatalf("looked up every record on %d loads of %d chunks", loads, pc.NumChunks())
	}
	if sum, err := lookupSum(pc, c); err != nil || sum != corpusSum(c) {
		t.Fatalf("lookups diverge from the collector (%v)", err)
	}

	for i := 0; i < 2000; i++ {
		a := addr.FromParts(0x30010db8<<32|tmix(uint64(i))%97<<4, tmix(uint64(i)+1))
		if _, ok, err := pc.Get(a); err != nil {
			t.Fatal(err)
		} else if ok {
			t.Fatalf("tier claims to hold absent %v", a)
		}
	}
}

func TestTierEmptyCorpus(t *testing.T) {
	c := collector.New()
	path := writeTierFile(t, c)
	pc := openOrDie(t, path, Options{})
	if pc.NumAddrs() != 0 || pc.NumChunks() != 0 {
		t.Fatalf("empty tier reports %d addrs, %d chunks", pc.NumAddrs(), pc.NumChunks())
	}
	if _, ok, err := pc.Get(addr.FromParts(1, 2)); err != nil || ok {
		t.Fatalf("empty tier Get = %v, %v", ok, err)
	}
}

// TestTierEquivalenceAcrossBudgets: lookups must hand back the
// collector's records whether the corpus is fully resident, budget
// -constrained, or effectively all-cold.
func TestTierEquivalenceAcrossBudgets(t *testing.T) {
	c := buildCorpus(t, 30000)
	want := corpusSum(c)
	path := writeTierFile(t, c)

	budgets := map[string]int64{
		"resident": 0,
		"half":     3 * chunkBytes,
		"cold":     chunkBytes,
	}
	for name, budget := range budgets {
		t.Run(name, func(t *testing.T) {
			pc := openOrDie(t, path, Options{RAMBudget: budget})
			sum, err := lookupSum(pc, c)
			if err != nil {
				t.Fatal(err)
			}
			if sum != want {
				t.Fatalf("walk diverges at budget %d", budget)
			}
			// Walk twice: the second pass finds some chunks resident.
			again, err := lookupSum(pc, c)
			if err != nil {
				t.Fatal(err)
			}
			if again != want {
				t.Fatalf("second walk diverges at budget %d", budget)
			}
		})
	}
}

func TestTierBudgetHolds(t *testing.T) {
	c := buildCorpus(t, 30000)
	path := writeTierFile(t, c)
	met := NewMetrics(telemetry.NewRegistry())
	budget := 2 * chunkBytes
	pc := openOrDie(t, path, Options{RAMBudget: budget, Metrics: met})

	checkBudget := func(stage string) {
		t.Helper()
		if rb := pc.ResidentBytes(); rb > budget {
			t.Fatalf("%s: %d resident bytes over budget %d", stage, rb, budget)
		}
		if met.Resident.Value() != int64(pc.ResidentChunks()) {
			t.Fatalf("%s: resident gauge %d, cache holds %d", stage, met.Resident.Value(), pc.ResidentChunks())
		}
		if met.Resident.Value()+met.Cold.Value() != int64(pc.NumChunks()) {
			t.Fatalf("%s: gauges sum to %d of %d chunks", stage,
				met.Resident.Value()+met.Cold.Value(), pc.NumChunks())
		}
	}
	checkBudget("open")

	// Point lookups across the whole key space touch every chunk.
	i := 0
	c.CanonicalOrder()(func(a addr.Addr, _ collector.AddrRecord) bool {
		if i%37 == 0 {
			if _, ok, err := pc.Get(a); err != nil || !ok {
				t.Fatalf("Get: %v, %v", ok, err)
			}
		}
		i++
		return true
	})
	checkBudget("gets")
	if int64(met.Loads.Value()) < int64(pc.NumChunks()) {
		t.Fatalf("only %d loads across %d chunks", met.Loads.Value(), pc.NumChunks())
	}
	if met.LoadSeconds.Count() != met.Loads.Value() {
		t.Fatalf("histogram saw %d loads, counter %d", met.LoadSeconds.Count(), met.Loads.Value())
	}

	// A walk in canonical order pages every chunk in turn through the
	// same cache and the same budget, which must hold at every chunk the
	// walk crosses.
	n := 0
	c.CanonicalOrder()(func(a addr.Addr, _ collector.AddrRecord) bool {
		if _, ok, err := pc.Get(a); err != nil || !ok {
			t.Fatalf("Get: %v, %v", ok, err)
		}
		if n%TierChunkRecs == 0 {
			checkBudget(fmt.Sprintf("walk at record %d", n))
		}
		n++
		return true
	})
	checkBudget("walk")
}

// TestTierFilterSkips is the satellite acceptance bar: point probes for
// absent keys inside the corpus's key range must skip >= 90% of chunk
// loads via the fence + bloom filters.
func TestTierFilterSkips(t *testing.T) {
	c := buildCorpus(t, 30000)
	path := writeTierFile(t, c)
	met := NewMetrics(telemetry.NewRegistry())
	pc := openOrDie(t, path, Options{RAMBudget: chunkBytes, Metrics: met})

	// Absent keys shaped like present ones: take a real address and
	// perturb its low bits, discarding accidental hits, so most probes
	// land inside some chunk's fence and only the bloom can veto them.
	var present []addr.Addr
	c.CanonicalOrder()(func(a addr.Addr, _ collector.AddrRecord) bool {
		present = append(present, a)
		return true
	})
	probes := 0
	for i := 0; probes < 5000; i++ {
		a := present[int(tmix(uint64(i))%uint64(len(present)))]
		a[15] ^= byte(tmix(uint64(i)+7)) | 1
		if _, exists := c.Get(a); exists {
			continue
		}
		_, ok, err := pc.Get(a)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("tier claims to hold absent %v", a)
		}
		probes++
	}
	p, s := met.Probes.Value(), met.Skips.Value()
	if p != uint64(probes) {
		t.Fatalf("probe counter %d, made %d probes", p, probes)
	}
	if rate := float64(s) / float64(p); rate < 0.9 {
		t.Fatalf("filters skipped %.1f%% of absent-key probes, want >= 90%%", rate*100)
	}
	// Skips avoid loads: the only loads are bloom false positives.
	if met.Loads.Value() > uint64(probes)/10 {
		t.Fatalf("%d chunk loads for %d absent-key probes", met.Loads.Value(), probes)
	}
}

func TestTierConcurrentReads(t *testing.T) {
	c := buildCorpus(t, 30000)
	want := corpusSum(c)
	path := writeTierFile(t, c)
	pc := openOrDie(t, path, Options{RAMBudget: 2 * chunkBytes})

	var present []addr.Addr
	c.CanonicalOrder()(func(a addr.Addr, _ collector.AddrRecord) bool {
		present = append(present, a)
		return true
	})

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				a := present[int(tmix(seed+uint64(i))%uint64(len(present)))]
				if _, ok, err := pc.Get(a); err != nil {
					errs <- err
					return
				} else if !ok {
					errs <- fmt.Errorf("lost %v under concurrency", a)
					return
				}
			}
		}(uint64(g) * 977)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum, err := lookupSum(pc, c)
			if err != nil {
				errs <- err
				return
			}
			if sum != want {
				errs <- fmt.Errorf("walk diverged under concurrency")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func tierBytes(tb testing.TB, events int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteTier(buildCorpus(tb, events), &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestTierTruncationTorture: any truncation must fail at Open — chunk
// offsets are arithmetic against the file size, so a short file can
// never look whole.
func TestTierTruncationTorture(t *testing.T) {
	raw := tierBytes(t, 6000)
	path := filepath.Join(t.TempDir(), "cut.tier")
	step := len(raw)/101 + 1
	cuts := []int{0, 1, 7, 8, 11, 12, len(raw) - 13, len(raw) - 12, len(raw) - 1}
	for at := 0; at < len(raw); at += step {
		cuts = append(cuts, at)
	}
	for _, cut := range cuts {
		if cut < 0 || cut >= len(raw) {
			continue
		}
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		pc, err := Open(path, Options{})
		if err == nil {
			pc.Close()
			t.Fatalf("truncation at %d of %d opened cleanly", cut, len(raw))
		}
	}
}

// TestTierBitFlipTorture: a flipped bit must surface as an error at
// Open or on chunk load — or, if it lands in dead framing (the end
// marker), leave every looked-up record byte-identical. Silent record
// corruption is the one forbidden outcome.
func TestTierBitFlipTorture(t *testing.T) {
	c := buildCorpus(t, 6000)
	raw := tierBytes(t, 6000)
	orig := append([]byte(nil), raw...)
	path := filepath.Join(t.TempDir(), "flip.tier")

	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := lookupSum(openOrDie(t, path, Options{}), c)
	if err != nil {
		t.Fatal(err)
	}

	step := len(raw)/197 + 1
	for off := 0; off < len(raw); off += step {
		for _, bit := range []uint{0, 7} {
			raw[off] ^= 1 << bit
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			pc, err := Open(path, Options{RAMBudget: chunkBytes})
			if err == nil {
				sum, cerr := lookupSum(pc, c)
				if cerr == nil && sum != want {
					t.Fatalf("flip at %d bit %d silently changed the corpus", off, bit)
				}
				pc.Close()
			}
			raw[off] ^= 1 << bit
		}
	}
}

// TestTierRejectsVersion1: a file from before the format dropped its
// embedded IID table fails Open on the version word, before any of its
// sections is read — the daemon rewrites it from the corpus.
func TestTierRejectsVersion1(t *testing.T) {
	raw := tierBytes(t, 600)
	if got := binary.BigEndian.Uint32(raw[len(tierMagic):]); got != tierVersion {
		t.Fatalf("version word reads %d, want %d", got, tierVersion)
	}
	binary.BigEndian.PutUint32(raw[len(tierMagic):], 1)
	path := filepath.Join(t.TempDir(), "v1.tier")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	pc, err := Open(path, Options{})
	if err == nil {
		pc.Close()
		t.Fatal("version-1 tier opened")
	}
	if !strings.Contains(err.Error(), "tier version 1 unsupported") {
		t.Fatalf("version-1 tier rejected with %q, want the version error", err)
	}
}

// TestGetResidentZeroAlloc is the deterministic gate on the /probe path:
// a lookup whose chunk is resident — present key, absent key inside the
// fences, absent key outside them — allocates nothing.
func TestGetResidentZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	c := buildCorpus(t, 5000)
	pc := openOrDie(t, writeTierFile(t, c), Options{RAMBudget: 64 * chunkBytes})
	present, _, _ := genEvent(42)
	inside := present
	inside[15] ^= 1
	if _, exists := c.Get(inside); exists {
		t.Fatal("perturbed address is in the corpus; pick another")
	}
	for _, a := range []addr.Addr{present, inside, {}} {
		want := a == present
		if _, ok, err := pc.Get(a); err != nil || ok != want { // also loads the chunk
			t.Fatalf("Get(%v) = %v, %v; want found=%v", a, ok, err, want)
		}
		if avg := testing.AllocsPerRun(100, func() { _, _, _ = pc.Get(a) }); avg != 0 {
			t.Errorf("resident Get(%v): %.1f allocs/op, want 0", a, avg)
		}
	}
}
