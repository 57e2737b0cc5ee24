// The tiered-corpus matrix legs (profiles marked workload.Profile
// .Tiered): the delta-restore cell runs the chain protocol's
// checkpoint-mid-stream split through the determinism assertion, and
// the tier legs re-read the asserted corpus through internal/pager —
// fully resident, budget-constrained, and all-cold — requiring the
// collector's record for every one of its addresses from every
// residency mode, the RAM budget held throughout the walk, plus the
// cold path's filter-skip bar.
package matrix

import (
	"bufio"
	"bytes"
	"fmt"
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

// deltaRestoreCell is the chain-protocol leg: feed half the stream,
// write a full checkpoint, feed to three quarters, write a delta of the
// dirtied blocks, restore base+delta into a fresh pipeline (the outage
// series carried over exactly like restoreCell), and feed the rest. Its
// corpus and report must be byte-identical to the straight run's.
func deltaRestoreCell(p *workload.Profile, st *workload.Stream) (*ingest.Pipeline, error) {
	cell := Cell{Profile: p.Name, Seed: st.Seed, Mode: "delta-restore"}
	half := len(st.Events) / 2
	threeQ := half + len(st.Events)/4

	first, err := ingest.New(cellConfig(p, st, false))
	if err != nil {
		return nil, fmt.Errorf("matrix: %s: %w", cellID(cell), err)
	}
	first.Ingest(st.Events[:half])
	first.Quiesce()
	var base bytes.Buffer
	bw := bufio.NewWriter(&base)
	if err := first.Store().CheckpointFull(bw); err != nil {
		return nil, fmt.Errorf("matrix: %s: full checkpoint: %w", cellID(cell), err)
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}

	first.Ingest(st.Events[half:threeQ])
	first.Quiesce()
	var delta bytes.Buffer
	dw := bufio.NewWriter(&delta)
	if err := first.Store().CheckpointDelta(dw); err != nil {
		return nil, fmt.Errorf("matrix: %s: delta checkpoint: %w", cellID(cell), err)
	}
	if err := dw.Flush(); err != nil {
		return nil, err
	}
	// Close after the delta: the first pipeline's outage series is
	// exactly the restore point's, so carryOutage below hands the second
	// pipeline what a crash recovery would rebuild.
	first.Close()
	if delta.Len() == 0 {
		return nil, fmt.Errorf("matrix: %s: empty delta checkpoint", cellID(cell))
	}

	restored, err := collector.RestoreChain(bufio.NewReader(&base), bufio.NewReader(&delta))
	if err != nil {
		return nil, fmt.Errorf("matrix: %s: chain restore: %w", cellID(cell), err)
	}
	cfg := cellConfig(p, st, false)
	cfg.Seed = restored
	second, err := ingest.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("matrix: %s: %w", cellID(cell), err)
	}
	if err := carryOutage(first, second); err != nil {
		return nil, fmt.Errorf("matrix: %s: %w", cellID(cell), err)
	}
	second.Ingest(st.Events[threeQ:])
	return second, nil
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
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := pager.WriteTier(col, bw); err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("matrix: %s seed %d: write tier: %w", st.Profile, st.Seed, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	order := col.CanonicalOrder()
	legs := []struct {
		mode   string
		budget int64 // 0 = unlimited; 1 byte = LRU floor of one chunk
	}{
		{"tier-resident", 0},
		{"tier-budget", fi.Size() / 2},
		{"tier-cold", 1},
	}
	var cells []Cell
	for _, leg := range legs {
		if err := tierLeg(path, col, order, leg.mode, leg.budget); err != nil {
			return nil, fmt.Errorf("matrix: %s seed %d: %s: %w", st.Profile, st.Seed, leg.mode, err)
		}
		cells = append(cells, Cell{
			Profile: st.Profile, Seed: st.Seed, Mode: leg.mode,
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
	col.AddrsCanonical(func(a addr.Addr, _ collector.AddrRecord) bool {
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
