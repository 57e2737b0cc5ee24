package collector_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"hitlist6/internal/addr"
	"hitlist6/internal/analysis"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/simnet"
	"hitlist6/internal/tracking"
)

// TestIIDTableBuildPaths: an IID table is a fold of address records, so
// it answers the same however the corpus holding them was built —
// serially, through the ingest pipeline, or restored from a snapshot
// plus a delta.
// The stream is the head of the collector benchmark stream with as many
// addresses as the repository benchmark's: EUI-64 interfaces spread
// over many /64s, re-sightings, and random IIDs.
func TestIIDTableBuildPaths(t *testing.T) {
	addrs, times, servers := collector.BenchStreamHead(265_000)
	serial := collector.New()
	for i := range addrs {
		serial.ObserveUnix(addrs[i], times[i], servers[i])
	}
	want := serial.CopyRecords().IIDTable()
	if want.NumPromotedIIDs() == 0 {
		t.Fatal("stream has no promoted IIDs; the comparison would be vacuous")
	}

	events := make([]ingest.Event, len(addrs))
	for i := range addrs {
		events[i] = ingest.Event{Addr: addrs[i], Time: times[i], Server: int32(servers[i])}
	}
	p, err := ingest.New(ingest.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.Ingest(events)
	collector.SameIIDTables(t, p.Close().CopyRecords().IIDTable(), want)

	c := collector.New()
	var base, delta bytes.Buffer
	for i := range addrs {
		c.ObserveUnix(addrs[i], times[i], servers[i])
		if i == len(addrs)/2 {
			if err := c.Snapshot(&base); err != nil {
				t.Fatal(err)
			}
			c.MarkCheckpointedFull()
		}
	}
	if err := c.SnapshotDelta(&delta); err != nil {
		t.Fatal(err)
	}
	restored, err := collector.RestoreChain(&base, &delta)
	if err != nil {
		t.Fatal(err)
	}
	collector.SameIIDTables(t, restored.CopyRecords().IIDTable(), want)
}

// TestIIDFoldOrderFree: a study folds its IID table from the records in
// canonical order, and nothing a reader gets from the table may depend
// on that order. The same records of a simulated corpus, folded in
// canonical order and in seeded permutations, must give the same
// canonical IID encoding, the same Figure 2b and the same tracking
// analysis. The permutations move what the fold order does decide —
// promoted-slab order and span-chain order (IIDView.P64s' order is
// unspecified) — so a reader that depends on either fails here.
func TestIIDFoldOrderFree(t *testing.T) {
	w, err := simnet.Build(simnet.DefaultConfig(3, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	c := collector.New()
	w.GenerateQueries(func(q simnet.Query) { c.ObserveUnix(q.Addr, q.Time.Unix(), 0) })
	recs := c.TakeRecords()
	canon := recs.IIDTable()
	wantIIDs := canon.CanonicalIIDs()
	wantF2b := analysis.ComputeFigure2bWorkers(canon, 2)
	wantTr := tracking.AnalyzeWorkers(canon, w.ASDB, w.Geo, w.OUI, 2)
	if wantTr.Trackable == 0 {
		t.Fatal("no trackable MAC in the corpus; the span-order check would be vacuous")
	}

	// spanOrders is each tracked IID's span chain in P64s order, and the
	// tracked IIDs in promoted-slab order.
	spanOrders := func(tb *collector.IIDTable) (iids []addr.IID, chains map[addr.IID][]addr.Prefix64) {
		chains = make(map[addr.IID][]addr.Prefix64)
		tb.EUI64IIDsRange(0, tb.NumPromotedIIDs(), func(iid addr.IID, v collector.IIDView) bool {
			iids = append(iids, iid)
			v.P64s(func(p addr.Prefix64, _ collector.Span) bool {
				chains[iid] = append(chains[iid], p)
				return true
			})
			return true
		})
		return iids, chains
	}
	canonIIDs, canonChains := spanOrders(canon)

	for _, seed := range []uint64{1, 2, 3} {
		perm := recs.Permuted(seed).FoldIIDs()
		permIIDs, permChains := spanOrders(perm)
		if slices.Equal(permIIDs, canonIIDs) {
			t.Errorf("seed %d: the permutation left the promoted-slab order as it was", seed)
		}
		if reflect.DeepEqual(permChains, canonChains) {
			t.Errorf("seed %d: the permutation left every span chain in its order", seed)
		}
		if got := perm.CanonicalIIDs(); !bytes.Equal(got, wantIIDs) {
			t.Errorf("seed %d: the canonical IID encoding depends on fold order", seed)
		}
		if got := analysis.ComputeFigure2bWorkers(perm, 2); !reflect.DeepEqual(got, wantF2b) {
			t.Errorf("seed %d: Figure 2b depends on fold order:\n got  %+v\n want %+v", seed, got, wantF2b)
		}
		if got := tracking.AnalyzeWorkers(perm, w.ASDB, w.Geo, w.OUI, 2); !reflect.DeepEqual(got, wantTr) {
			t.Errorf("seed %d: the tracking analysis depends on fold order", seed)
		}
	}
}
