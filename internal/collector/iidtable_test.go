package collector_test

import (
	"bytes"
	"testing"

	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
)

// TestIIDTableBuildPaths: an IID table is a fold of address records, so
// it answers the same however the corpus holding them was built —
// serially, through the ingest pipeline at 1 and 4 shards (slab order
// then follows the merges), or restored from a snapshot plus a delta.
// The stream is the head of the collector benchmark stream with as many
// addresses as the repository benchmark's: EUI-64 interfaces spread
// over many /64s, re-sightings, and random IIDs.
func TestIIDTableBuildPaths(t *testing.T) {
	addrs, times, servers := collector.BenchStreamHead(265_000)
	serial := collector.New()
	for i := range addrs {
		serial.ObserveUnix(addrs[i], times[i], servers[i])
	}
	want := serial.IIDTable()
	if want.NumPromotedIIDs() == 0 {
		t.Fatal("stream has no promoted IIDs; the comparison would be vacuous")
	}

	events := make([]ingest.Event, len(addrs))
	for i := range addrs {
		events[i] = ingest.Event{Addr: addrs[i], Time: times[i], Server: int32(servers[i])}
	}
	for _, shards := range []int{1, 4} {
		p, err := ingest.New(ingest.DefaultConfig(shards))
		if err != nil {
			t.Fatal(err)
		}
		p.Ingest(events)
		collector.SameIIDTables(t, p.Close().IIDTable(), want)
	}

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
	collector.SameIIDTables(t, restored.IIDTable(), want)
}
