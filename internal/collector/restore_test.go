package collector

import (
	"bytes"
	"cmp"
	"encoding/hex"
	"io"
	"os"
	"slices"
	"testing"

	"hitlist6/internal/addr"
)

// A checkpoint holds address records and nothing else, so the property
// to pin is that a restored collector answers as the one that wrote it
// did — for every structure a reader can reach, IID tables included,
// not only the ones Checksum covers.

type p64Span struct {
	p  addr.Prefix64
	sp Span
}

// sameCorpus holds got to want in everything a collector answers: the
// canonical checksum (every address record, every IID aggregate), the
// counts, and through their IID tables the promoted-record count and
// each IID's view — first, last, count, tracked or not, and its per-/64
// spans.
func sameCorpus(t testing.TB, got, want *Collector) {
	t.Helper()
	if got.Checksum() != want.Checksum() {
		t.Fatalf("checksums differ")
	}
	if got.NumAddrs() != want.NumAddrs() || got.TotalObservations() != want.TotalObservations() {
		t.Fatalf("addrs/total %d/%d, want %d/%d",
			got.NumAddrs(), got.TotalObservations(), want.NumAddrs(), want.TotalObservations())
	}
	sameIIDTables(t, got.CopyRecords().IIDTable(), want.CopyRecords().IIDTable())
}

// sameIIDTables holds got to want view for view.
func sameIIDTables(t testing.TB, got, want *IIDTable) {
	t.Helper()
	if got.NumIIDs() != want.NumIIDs() || got.NumPromotedIIDs() != want.NumPromotedIIDs() {
		t.Fatalf("IIDs/promoted %d/%d, want %d/%d",
			got.NumIIDs(), got.NumPromotedIIDs(), want.NumIIDs(), want.NumPromotedIIDs())
	}
	spansOf := func(v IIDView) []p64Span {
		var out []p64Span
		v.P64s(func(p addr.Prefix64, sp Span) bool {
			out = append(out, p64Span{p, sp})
			return true
		})
		slices.SortFunc(out, func(a, b p64Span) int { return cmp.Compare(a.p, b.p) })
		return out
	}
	want.IIDs(func(iid addr.IID, w IIDView) bool {
		g, ok := got.GetIID(iid)
		if !ok {
			t.Fatalf("IID %016x missing", uint64(iid))
		}
		if g.First() != w.First() || g.Last() != w.Last() || g.Count() != w.Count() ||
			g.Tracked() != w.Tracked() || g.NumP64s() != w.NumP64s() {
			t.Fatalf("IID %016x: first/last/count/tracked/p64s %d/%d/%d/%v/%d, want %d/%d/%d/%v/%d", uint64(iid),
				g.First(), g.Last(), g.Count(), g.Tracked(), g.NumP64s(),
				w.First(), w.Last(), w.Count(), w.Tracked(), w.NumP64s())
		}
		if gs, ws := spansOf(g), spansOf(w); !slices.Equal(gs, ws) {
			t.Fatalf("IID %016x: spans %v, want %v", uint64(iid), gs, ws)
		}
		return true
	})
}

// TestRestoreIsDerive: over seeded streams with every IID shape (see
// foldStream), a snapshot (RestoreChain with no deltas is
// OpenSnapshot), and a base plus one to five deltas cut at even steps,
// restore to the collector that wrote them.
func TestRestoreIsDerive(t *testing.T) {
	for _, tc := range []struct {
		seed    uint64
		n, pool int
	}{{1, 3000, 5}, {2, 9000, 200}, {3, 20000, 3000}} {
		addrs, times, servers := foldStream(tc.seed, tc.n, tc.pool)
		for deltas := 0; deltas <= 5; deltas++ {
			c := New()
			files := make([]bytes.Buffer, deltas+1)
			for k := range files {
				lo, hi := tc.n*k/(deltas+1), tc.n*(k+1)/(deltas+1)
				for i := lo; i < hi; i++ {
					c.ObserveUnix(addrs[i], times[i], servers[i])
				}
				var err error
				if k == 0 {
					if err = c.Snapshot(&files[0]); err == nil {
						c.MarkCheckpointedFull()
					}
				} else if err = c.SnapshotDelta(&files[k]); err == nil {
					c.MarkCheckpointedDelta()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			readers := make([]io.Reader, len(files))
			for k := range files {
				readers[k] = bytes.NewReader(files[k].Bytes())
			}
			got, err := RestoreChain(readers[0], readers[1:]...)
			if err != nil {
				t.Fatalf("seed %d, %d deltas: %v", tc.seed, deltas, err)
			}
			sameCorpus(t, got, c)
			if seq, based := got.CheckpointSeq(); !based || seq != uint64(deltas) {
				t.Fatalf("seed %d: restored at seq %d based=%v, want %d", tc.seed, seq, based, deltas)
			}
		}
	}
}

// The version-1 chain fixture: testdata/v1chain holds a base and one
// delta as the last version-1 writers left them (goldenStream events
// [0, 1000), then [1000, 2000) and [0, 300) again), under the names a
// snapshot directory gives them, so the daemon's upgrade smoke starts
// on a copy of it.
const (
	v1ChainBase  = "testdata/v1chain/corpus.snap"
	v1ChainDelta = "testdata/v1chain/corpus.snap.delta.000001"

	v1ChainBaseSum = "e0b8db3d3057c8cf4727f69458bb831e443c5548ca5eae99b74f6ec25cd715f9"
	v1ChainSum     = "5b2ebf48998d717719551c2ed542bc4ad84acdbb1b486f1f6168e97a9d7b8486"
)

func v1Chain(t testing.TB) (base, delta []byte) {
	t.Helper()
	base, err := os.ReadFile(v1ChainBase)
	if err != nil {
		t.Fatal(err)
	}
	delta, err = os.ReadFile(v1ChainDelta)
	if err != nil {
		t.Fatal(err)
	}
	return base, delta
}

// TestV1ChainFixture: a chain written before this format version keeps
// restoring — base alone and base plus delta — to the checksums its
// writer computed, and to the collector that replays its events.
func TestV1ChainFixture(t *testing.T) {
	base, delta := v1Chain(t)
	addrs, times, servers := goldenStream()
	want := New()
	feedGolden(want, addrs, times, servers, 0, 1000)

	got, err := OpenSnapshot(bytes.NewReader(base))
	if err != nil {
		t.Fatalf("v1 base: %v", err)
	}
	if sum := got.Checksum(); hex.EncodeToString(sum[:]) != v1ChainBaseSum {
		t.Fatalf("v1 base restores to %x", sum)
	}
	sameCorpus(t, got, want)

	feedGolden(want, addrs, times, servers, 1000, 2000)
	feedGolden(want, addrs, times, servers, 0, 300)
	got, err = RestoreChain(bytes.NewReader(base), bytes.NewReader(delta))
	if err != nil {
		t.Fatalf("v1 chain: %v", err)
	}
	if sum := got.Checksum(); hex.EncodeToString(sum[:]) != v1ChainSum {
		t.Fatalf("v1 chain restores to %x", sum)
	}
	sameCorpus(t, got, want)
	if seq, _ := got.CheckpointSeq(); seq != 1 {
		t.Fatalf("v1 chain restored at seq %d", seq)
	}

	// The next checkpoint of a restored v1 chain is a version-2 delta on
	// the version-1 files, and the mixed chain restores.
	got.ObserveUnix(addrs[0], times[0]+5, 1)
	var next bytes.Buffer
	if err := got.SnapshotDelta(&next); err != nil {
		t.Fatal(err)
	}
	mixed, err := RestoreChain(bytes.NewReader(base), bytes.NewReader(delta), bytes.NewReader(next.Bytes()))
	if err != nil {
		t.Fatalf("v1 base + v1 delta + v2 delta: %v", err)
	}
	sameCorpus(t, mixed, got)
}
