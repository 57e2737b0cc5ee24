package collector

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"

	"hitlist6/internal/addr"
)

// GoldenStream hands goldenStream to the external test package, which
// (unlike this one) may import internal/pager.
var GoldenStream = goldenStream

// SameIIDTables hands sameIIDTables to the external test package.
var SameIIDTables = sameIIDTables

// BenchStreamHead returns the first n events of collectorBenchStream as
// parallel slices, for the external test package.
func BenchStreamHead(n int) (addrs []addr.Addr, times []int64, servers []int) {
	events, _ := collectorBenchStream()
	for _, ev := range events[:n] {
		addrs, times, servers = append(addrs, ev.a), append(times, ev.ts), append(servers, ev.server)
	}
	return addrs, times, servers
}

// Permuted returns a copy of r's records in a random order drawn from
// seed, marked unsorted.
func (r *Records) Permuted(seed uint64) *Records {
	p := &Records{keys: slices.Clone(r.keys), recs: slices.Clone(r.recs), total: r.total}
	rand.New(rand.NewPCG(seed, seed)).Shuffle(len(p.keys), func(i, j int) {
		p.keys[i], p.keys[j] = p.keys[j], p.keys[i]
		p.recs[i], p.recs[j] = p.recs[j], p.recs[i]
	})
	return p
}

// FoldIIDs folds r into an IID table in the order r holds its records,
// sorted or not: the fold IIDTable runs once r is sorted.
func (r *Records) FoldIIDs() *IIDTable { return r.foldIIDs() }

// CanonicalIIDs is t's canonical IID encoding: the IID half of
// WriteCanonical.
func (t *IIDTable) CanonicalIIDs() []byte {
	var w bytes.Buffer
	buf, _ := t.appendCanonicalIIDs(nil, &w) // a bytes.Buffer never fails
	w.Write(buf)
	return w.Bytes()
}

// OpenSnapshot restores a collector from a Snapshot stream alone: a
// chain of no deltas.
func OpenSnapshot(r io.Reader) (*Collector, error) {
	return RestoreChain(r)
}

// RestoreChain restores a checkpoint chain held in memory: a full
// snapshot stream followed by its deltas in sequence order, the steps
// ingest.RestoreNewest takes over files. Any failure returns an error
// and no collector.
func RestoreChain(base io.Reader, deltas ...io.Reader) (*Collector, error) {
	rs, err := NewRestore(base)
	if err != nil {
		return nil, err
	}
	for i, d := range deltas {
		if err := rs.ApplyDelta(d); err != nil {
			return nil, fmt.Errorf("collector: chain delta %d: %w", i+1, err)
		}
	}
	return rs.Collector()
}
