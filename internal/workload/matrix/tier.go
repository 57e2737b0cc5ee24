// The tier legs of profiles marked workload.Profile.Tiered: they re-read
// the asserted corpus through internal/pager — fully resident,
// budget-constrained, and all-cold — requiring the collector's record
// for every one of its addresses from every residency mode, the RAM
// budget held throughout the walk, plus the cold path's filter-skip bar.
package matrix

import (
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/pager"
	"hitlist6/internal/telemetry"
	"hitlist6/internal/workload"
)

// tierTable is the tier legs in the order they run, each with its RAM
// budget as a function of the tier file's size: 0 is unlimited, 1 byte
// the LRU's floor of one chunk.
var tierTable = []struct {
	mode   string
	budget func(size int64) int64
}{
	{"tier-resident", func(int64) int64 { return 0 }},
	{"tier-budget", func(size int64) int64 { return size / 2 }},
	{"tier-cold", func(int64) int64 { return 1 }},
}

// tierLegs writes the asserted cell's corpus as a tier file and re-reads
// it through internal/pager at three residency regimes. Each leg must
// hand back exactly the collector's address records, looked up in
// canonical order — the tier is the same corpus, however little of it
// is in RAM — loading every chunk through the cache and never holding
// more than the budget (or the one-chunk floor) while it does, and the
// all-cold leg must additionally skip at least 90% of absent probes on
// its per-chunk filters without chunk I/O.
func tierLegs(st *workload.Stream, want *cellOutcome) ([]Cell, error) {
	col := want.col
	dir, err := os.MkdirTemp("", "matrix-tier-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "corpus.tier")
	size, err := ingest.AtomicWriteFile(path, func(w io.Writer) error { return pager.WriteTier(col, w) })
	if err != nil {
		return nil, fmt.Errorf("matrix: %s seed %d: write tier: %w", st.Profile, st.Seed, err)
	}

	order := col.CanonicalOrder()
	var cells []Cell
	for _, tl := range tierTable {
		if err := tierLeg(path, col, order, tl.mode, tl.budget(size)); err != nil {
			return nil, fmt.Errorf("matrix: %s seed %d: %s: %w", st.Profile, st.Seed, tl.mode, err)
		}
		cells = append(cells, Cell{
			Profile: st.Profile, Seed: st.Seed, Mode: tl.mode,
			Checksum: want.cell.Checksum, Events: len(st.Events), Addrs: col.NumAddrs(),
		})
	}
	return cells, nil
}

// tierLeg opens the tier file under one budget and holds it to the
// asserted cell's collector: counts, the record walk, every chunk
// loaded through the cache, and on the all-cold leg the filter-skip bar.
func tierLeg(path string, col *collector.Collector, order iter.Seq2[addr.Addr, collector.AddrRecord], mode string, budget int64) error {
	met := pager.NewMetrics(telemetry.NewRegistry())
	tc, err := pager.Open(path, pager.Options{RAMBudget: budget, Metrics: met})
	if err != nil {
		return err
	}
	defer tc.Close()
	if tc.NumAddrs() != col.NumAddrs() || tc.TotalObservations() != col.TotalObservations() {
		return fmt.Errorf("counts diverged: %d/%d addrs, %d/%d observations",
			tc.NumAddrs(), col.NumAddrs(), tc.TotalObservations(), col.TotalObservations())
	}
	if err := walkTier(tc, order, budget); err != nil {
		return err
	}
	if loads := met.Loads.Value(); loads < uint64(tc.NumChunks()) {
		return fmt.Errorf("walked %d chunks on %d loads; the walk bypassed the cache", tc.NumChunks(), loads)
	}
	if mode == "tier-cold" {
		return probeAbsent(tc, col, met)
	}
	return nil
}

// walkTier looks up every address of the collector's canonical order
// in the tier and requires the collector's record for each. With the
// address counts equal, every key found means the two hold the same
// set. Every 4096th lookup — a chunk's worth, so a load and its
// eviction pass have just run — residency must be within budget, or
// down to the one chunk the cache never evicts.
func walkTier(tc *pager.Corpus, order iter.Seq2[addr.Addr, collector.AddrRecord], budget int64) error {
	i := 0
	for a, want := range order {
		got, ok, err := tc.Get(a)
		if err != nil {
			return fmt.Errorf("walk: %w", err)
		}
		if !ok || got != want {
			return fmt.Errorf("record %d: the tier holds %v %+v (found %v), the asserted cell %+v", i, a, got, ok, want)
		}
		if budget > 0 && i%pager.TierChunkRecs == 0 && tc.ResidentChunks() > 1 && tc.ResidentBytes() > budget {
			return fmt.Errorf("resident %d bytes in %d chunks over the %d budget at record %d",
				tc.ResidentBytes(), tc.ResidentChunks(), budget, i)
		}
		i++
	}
	return nil
}

// probeAbsent drives the cold corpus with absent keys manufactured to
// land inside chunk key fences (bit-perturbed present addresses, so the
// bloom filter is the only thing standing between a probe and a chunk
// load) and asserts the filter-skip bar: at least 90% of the probes
// resolve without I/O.
func probeAbsent(tc *pager.Corpus, col *collector.Collector, met *pager.Metrics) error {
	present := make([]addr.Addr, 0, 2048)
	col.CanonicalOrder()(func(a addr.Addr, _ collector.AddrRecord) bool {
		present = append(present, a)
		return len(present) < cap(present)
	})
	probes0, skips0, loads0 := met.Probes.Value(), met.Skips.Value(), met.Loads.Value()
	probed := 0
	for _, a := range present {
		b := addr.FromParts(a.Hi(), a.Lo()^0x5a5a)
		if _, hit := col.Get(b); hit {
			continue
		}
		if _, ok, err := tc.Get(b); err != nil {
			return fmt.Errorf("tier-cold probe: %w", err)
		} else if ok {
			return fmt.Errorf("tier-cold probe: absent address %v found", b)
		}
		probed++
	}
	probes := met.Probes.Value() - probes0
	skips := met.Skips.Value() - skips0
	loads := met.Loads.Value() - loads0
	if probes != uint64(probed) {
		return fmt.Errorf("tier-cold probe accounting: %d probes counted for %d Gets", probes, probed)
	}
	if skips*10 < probes*9 {
		return fmt.Errorf("tier-cold filter skipped %d of %d absent probes; want >= 90%% (chunk loads: %d)",
			skips, probes, loads)
	}
	return nil
}
