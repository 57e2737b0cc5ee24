package hitlist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"

	"hitlist6/internal/addr"
)

// Binary dataset format: a magic header, a varint count, then the sorted
// addresses delta-encoded as (varint hi-delta, varint lo) pairs — sorted
// corpora compress hard because consecutive addresses usually share the
// network half. The format is versioned and self-checking.
//
// Alias lists use the textual one-prefix-per-line format the real IPv6
// Hitlist service publishes.

const (
	datasetMagic   = "HL6D"
	datasetVersion = 1
)

// WriteTo serializes the dataset. It implements io.WriterTo.
func (d *Dataset) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	n, err := bw.WriteString(datasetMagic)
	written += int64(n)
	if err != nil {
		return written, err
	}
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		k := binary.PutUvarint(scratch[:], v)
		m, err := bw.Write(scratch[:k])
		written += int64(m)
		return err
	}
	if err := writeUvarint(datasetVersion); err != nil {
		return written, err
	}
	if err := writeUvarint(uint64(len(d.Name))); err != nil {
		return written, err
	}
	m, err := bw.WriteString(d.Name)
	written += int64(m)
	if err != nil {
		return written, err
	}
	// The dataset's backing slab is already canonical (sorted,
	// deduplicated) — exactly the order the delta encoding wants.
	addrs := d.View()
	if err := writeUvarint(uint64(len(addrs))); err != nil {
		return written, err
	}
	prevHi := uint64(0)
	for _, a := range addrs {
		hi := a.Hi()
		if err := writeUvarint(hi - prevHi); err != nil {
			return written, err
		}
		if err := writeUvarint(a.Lo()); err != nil {
			return written, err
		}
		prevHi = hi
	}
	if err := bw.Flush(); err != nil {
		return written, err
	}
	return written, nil
}

// ReadDataset deserializes a dataset written by WriteTo.
func ReadDataset(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(datasetMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("hitlist: reading magic: %w", err)
	}
	if string(magic) != datasetMagic {
		return nil, fmt.Errorf("hitlist: bad magic %q", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("hitlist: reading version: %w", err)
	}
	if version != datasetVersion {
		return nil, fmt.Errorf("hitlist: unsupported version %d", version)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("hitlist: reading name length: %w", err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("hitlist: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("hitlist: reading name: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("hitlist: reading count: %w", err)
	}
	d := NewDataset(string(name))
	prevHi := uint64(0)
	for i := uint64(0); i < count; i++ {
		dHi, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("hitlist: address %d: %w", i, err)
		}
		lo, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("hitlist: address %d: %w", i, err)
		}
		prevHi += dHi
		d.Add(addr.FromParts(prevHi, lo))
	}
	if uint64(d.Len()) != count {
		return nil, fmt.Errorf("hitlist: %d duplicate addresses in stream", count-uint64(d.Len()))
	}
	return d, nil
}

// WriteTo serializes the alias list in the textual format the IPv6
// Hitlist service publishes: one /64 prefix per line, sorted, with a
// comment header.
func (l *AliasList) WriteTo(w io.Writer) (int64, error) {
	lines := make([]string, 0, l.Len())
	l.Each(func(p addr.Prefix64) bool {
		lines = append(lines, p.String())
		return true
	})
	sort.Strings(lines)
	var b strings.Builder
	fmt.Fprintf(&b, "# aliased-prefixes: %d\n", len(lines))
	for _, line := range lines {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
