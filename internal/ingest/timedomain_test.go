package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/snapfmt"
)

// handSnapshot frames the given address records as a version-2
// snapshot by hand — meta (total, count), then the records — so that
// a record no collector could write reaches the restore.
func handSnapshot(t *testing.T, total uint64, keys []addr.Addr, recs []collector.AddrRecord) []byte {
	t.Helper()
	var payload []byte
	for i, k := range keys {
		payload = collector.AppendAddrRecord(payload, k, recs[i])
	}
	return handStream(t, "h6corps1", []uint64{total, uint64(len(keys))}, payload)
}

// restoreStreams restores a base stream and its deltas in order, the
// steps RestoreNewest takes over files.
func restoreStreams(base []byte, deltas ...[]byte) (*collector.Collector, error) {
	rs, err := collector.NewRestore(bytes.NewReader(base))
	if err != nil {
		return nil, err
	}
	for _, d := range deltas {
		if err := rs.ApplyDelta(bytes.NewReader(d)); err != nil {
			return nil, err
		}
	}
	return rs.Collector()
}

// handDelta frames one delta block — block 0, holding every record of
// a slab that starts at the base's records — over a base of baseN
// records and baseTotal observations.
func handDelta(t *testing.T, baseTotal, total uint64, baseN int, keys []addr.Addr, recs []collector.AddrRecord) []byte {
	t.Helper()
	payload := binary.BigEndian.AppendUint32(nil, 1)
	payload = binary.BigEndian.AppendUint32(payload, 0)
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(keys)))
	for i, k := range keys {
		payload = collector.AppendAddrRecord(payload, k, recs[i])
	}
	return handStream(t, "h6delta1", []uint64{0, 1, baseTotal, total, uint64(baseN), uint64(len(keys))}, payload)
}

func handStream(t *testing.T, magic string, meta []uint64, addrs []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := snapfmt.NewWriter(&buf, magic, 2)
	if err != nil {
		t.Fatal(err)
	}
	var m []byte
	for _, f := range meta {
		m = binary.BigEndian.AppendUint64(m, f)
	}
	for id, sec := range [][]byte{m, addrs} {
		if err := sw.Begin(uint32(id+1), uint64(len(sec))); err != nil {
			t.Fatal(err)
		}
		if _, err := sw.Write(sec); err != nil {
			t.Fatal(err)
		}
		if err := sw.End(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNoEdgeWrapsTime feeds times just outside the domain [0, 2^32-1],
// and the int64 extremes, through every edge that admits a time: the
// line decoder, ObserveUnix, and the restore of a snapshot and of a
// delta. Each must refuse the value; none may store it wrapped into the
// uint32 the slab keeps.
func TestNoEdgeWrapsTime(t *testing.T) {
	const good = 1643068800
	a, b := addr.MustParse("2001:db8::1"), addr.MustParse("2001:db8::2")
	goodRec := collector.AddrRecord{First: good, Last: good, Count: 1, Servers: 1}
	base := handSnapshot(t, 1, []addr.Addr{a}, []collector.AddrRecord{goodRec})
	if _, err := restoreStreams(base); err != nil {
		t.Fatalf("the hand-built base does not restore: %v", err)
	}

	for _, v := range []int64{-1, 1 << 32, math.MinInt64, math.MaxInt64} {
		t.Run(fmt.Sprint(v), func(t *testing.T) {
			line := fmt.Sprintf("%d 2001:db8::1 3\n", v)
			if ev, _, err := DecodeLine([]byte(line)); !errors.Is(err, errTimeDomain) {
				t.Errorf("DecodeLine(%q) = %+v, %v; want errTimeDomain", line, ev, err)
			}

			c := collector.New()
			c.ObserveUnix(a, v, 3)
			if c.TotalObservations() != 0 || c.NumAddrs() != 0 {
				t.Errorf("ObserveUnix(%d) folded: %d observations, %d addresses", v, c.TotalObservations(), c.NumAddrs())
			}

			// The value as First, as Last, and as both: each record is
			// out of the domain or inverted.
			for _, r := range []collector.AddrRecord{
				{First: v, Last: v, Count: 1},
				{First: v, Last: good, Count: 1},
				{First: good, Last: v, Count: 1},
			} {
				snap := handSnapshot(t, 2, []addr.Addr{a, b}, []collector.AddrRecord{goodRec, r})
				if c, err := restoreStreams(snap); err == nil {
					got, _ := c.Get(b)
					t.Errorf("snapshot record %+v restored as %+v", r, got)
				}
				delta := handDelta(t, 1, 2, 1, []addr.Addr{a, b}, []collector.AddrRecord{goodRec, r})
				if c, err := restoreStreams(base, delta); err == nil {
					got, _ := c.Get(b)
					t.Errorf("delta record %+v restored as %+v", r, got)
				}
			}
		})
	}

	// An inverted record is damage even with both times in the domain.
	inverted := collector.AddrRecord{First: good + 1, Last: good, Count: 1}
	if _, err := restoreStreams(handSnapshot(t, 2, []addr.Addr{a, b}, []collector.AddrRecord{goodRec, inverted})); err == nil {
		t.Error("snapshot with an inverted record restored")
	}

	// The edges of the domain itself are kept as they are, and a delta
	// built the same way restores: the rejections above are the times'.
	edge := collector.AddrRecord{First: 0, Last: math.MaxUint32, Count: 2}
	delta := handDelta(t, 1, 3, 1, []addr.Addr{a, b}, []collector.AddrRecord{goodRec, edge})
	c, err := restoreStreams(base, delta)
	if err != nil {
		t.Fatalf("delta with domain-edge times: %v", err)
	}
	if got, ok := c.Get(b); !ok || got != edge {
		t.Errorf("domain-edge record restored as %+v, %v; want %+v", got, ok, edge)
	}
	c.ObserveUnix(b, math.MaxUint32, 0)
	if got, _ := c.Get(b); got.First != 0 || got.Last != math.MaxUint32 || got.Count != 3 {
		t.Errorf("ObserveUnix at the domain's last second: %+v", got)
	}
}
