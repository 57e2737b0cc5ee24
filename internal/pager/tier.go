// Package pager implements the tiered corpus's probe index: a sealed
// collector's address records serialized as fixed-size canonical-order
// chunks that live resident in RAM or cold on disk, paged in on demand
// under a configurable budget. The tier file "h6tier01", version 2, is
// a snapfmt stream:
//
//	meta      — total, address count, chunk geometry
//	directory — per chunk: record count, key-range fence, bloom filter
//	chunk*    — per chunk: the address records in canonical order
//	end
//
// That is all its reader reads. A tier is one base file (the whole
// corpus) plus runs (the records one delta checkpoint carried), each a
// file of that same format written by WriteTier; a Corpus opens
// the base and attaches runs as they are written, and a lookup answers
// from the newest file holding the key. Records only grow — first is a
// min, last a max, count a sum, servers an or — and a record dirtied
// after a run was cut is in the next run too, so the newest holder is
// the freshest. A full checkpoint rewrites the base and drops the runs,
// which bounds their number by the checkpoint chain's compaction.
//
// The files hold no derived state: every per-IID figure is a fold of
// the address records, and the durable copy of the corpus is the
// checkpoint chain — a tier is rebuilt from the corpus whenever its
// files cannot be trusted, so a reader that rejects one (an older
// version, damage) costs a rewrite, never data. Version 1 also embedded
// the canonical IID table, read by nothing in production; it is
// rejected by the version check.
//
// Only chunks are paged; directories stay resident. Chunk payload
// offsets are not stored — they are arithmetic over the directory's
// record counts, so opening a file reads only meta and directory and
// never touches chunk data. Each chunk section carries its own CRC,
// verified on every cold load.
//
//lint:durable-path the tier file is the cold half of the corpus
package pager

import (
	"encoding/binary"
	"io"
	"iter"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/snapfmt"
)

const (
	tierMagic   = "h6tier01"
	tierVersion = 2

	// Section ids; 3 was version 1's embedded table and stays retired so
	// a chunk section is the same bytes in both versions.
	secTierMeta  = 1
	secTierDir   = 2
	secTierChunk = 4

	// tierMetaWire: total u64, addrN u64, chunkRecs u32, chunkCount u32.
	tierMetaWire = 24
	// tierRecWire is one address record on the wire — the snapshot's
	// entry, so a chunk is pure fixed-stride records that start with
	// their 16-byte key.
	tierRecWire = collector.AddrRecordWire
	// tierDirFixed is a directory entry minus its bloom words: n u32,
	// minKey[16], maxKey[16], bloomWords u32.
	tierDirFixed = 40

	// TierChunkRecs is the number of address records per chunk: small
	// enough that a cold point lookup reads ~160KB, large enough that the
	// directory costs a few hundred bytes per MB of records.
	TierChunkRecs = 4096

	// tierSectionOverhead frames every chunk section: 12-byte header plus
	// 4-byte CRC.
	tierSectionOverhead = 16
)

// Source is what WriteTier encodes: a collector, or a collector.Records
// copy — the whole corpus for a base (CopyRecords), a delta's records
// for a run (LastDeltaRecords).
type Source interface {
	CanonicalOrder() iter.Seq2[addr.Addr, collector.AddrRecord]
	NumAddrs() int
	TotalObservations() uint64
}

// WriteTier serializes c as a tier file: a tier's base or a run. Chunks are
// cut from the canonical address order, so chunk key ranges are
// disjoint and sorted — the property the directory fence search relies
// on. The order is computed once and walked twice: the first walk
// builds the directory (counts, fences, blooms), the second streams the
// chunk payloads, so nothing but the order and the directory is
// buffered. Both exist before the first byte reaches w — a caller
// timing its first Write has timed the ordering.
func WriteTier(c Source, w io.Writer) error {
	return writeTier(w, c.CanonicalOrder(), c.NumAddrs(), c.TotalObservations())
}

// writeTier is the one encoder: the n records order yields, with total
// in the meta.
func writeTier(w io.Writer, order iter.Seq2[addr.Addr, collector.AddrRecord], n int, total uint64) error {
	chunks := (n + TierChunkRecs - 1) / TierChunkRecs

	type dirEnt struct {
		n        uint32
		min, max addr.Addr
		bloom    []uint64
	}
	dir := make([]dirEnt, chunks)
	i := 0
	order(func(a addr.Addr, _ collector.AddrRecord) bool {
		d := &dir[i/TierChunkRecs]
		if d.n == 0 {
			d.min = a
			left := n - (i / TierChunkRecs * TierChunkRecs)
			d.bloom = newBloom(min(left, TierChunkRecs))
		}
		d.max = a
		d.n++
		bloomAdd(d.bloom, a)
		i++
		return true
	})

	sw, err := snapfmt.NewWriter(w, tierMagic, tierVersion)
	if err != nil {
		return err
	}
	if err := sw.Begin(secTierMeta, tierMetaWire); err != nil {
		return err
	}
	var meta [tierMetaWire]byte
	binary.BigEndian.PutUint64(meta[0:], total)
	binary.BigEndian.PutUint64(meta[8:], uint64(n))
	binary.BigEndian.PutUint32(meta[16:], TierChunkRecs)
	binary.BigEndian.PutUint32(meta[20:], uint32(chunks))
	if _, err := sw.Write(meta[:]); err != nil {
		return err
	}
	if err := sw.End(); err != nil {
		return err
	}

	dirSize := uint64(0)
	for _, d := range dir {
		dirSize += tierDirFixed + uint64(len(d.bloom))*8
	}
	if err := sw.Begin(secTierDir, dirSize); err != nil {
		return err
	}
	var ds []byte
	for _, d := range dir {
		ds = ds[:0]
		ds = binary.BigEndian.AppendUint32(ds, d.n)
		ds = append(ds, d.min[:]...)
		ds = append(ds, d.max[:]...)
		ds = binary.BigEndian.AppendUint32(ds, uint32(len(d.bloom)))
		for _, word := range d.bloom {
			ds = binary.BigEndian.AppendUint64(ds, word)
		}
		if _, err := sw.Write(ds); err != nil {
			return err
		}
	}
	if err := sw.End(); err != nil {
		return err
	}

	// Second walk: the chunk payloads, one section per chunk.
	var (
		buf      []byte
		ci       = -1
		writeErr error
	)
	flushChunk := func() {
		if ci < 0 || writeErr != nil {
			return
		}
		if writeErr = sw.Begin(secTierChunk, uint64(len(buf))); writeErr != nil {
			return
		}
		if _, writeErr = sw.Write(buf); writeErr != nil {
			return
		}
		writeErr = sw.End()
	}
	i = 0
	order(func(a addr.Addr, r collector.AddrRecord) bool {
		if i/TierChunkRecs != ci {
			flushChunk()
			ci = i / TierChunkRecs
			buf = buf[:0]
		}
		buf = collector.AppendAddrRecord(buf, a, r)
		i++
		return writeErr == nil
	})
	flushChunk()
	if writeErr != nil {
		return writeErr
	}
	return sw.Close()
}

// chunkPayloadSize returns the payload bytes of a chunk holding n
// records.
func chunkPayloadSize(n uint32) int64 { return int64(n) * tierRecWire }
