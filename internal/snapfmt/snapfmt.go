// Package snapfmt implements the shared on-disk framing of the durable
// corpus artifacts: collector snapshots, delta snapshots and the pager's
// tier file. A stream is a fixed 8-byte magic, a version word, a
// sequence of sections, and an end marker:
//
//	stream  = magic[8] version(u32) section* end
//	section = id(u32) size(u64) payload[size] crc32c(u32)   id != 0
//	end     = id=0(u32) size=0(u64)
//
// All integers are big-endian. Every section's payload is covered by a
// CRC-32C trailer, and the explicit end marker means truncation at any
// boundary — even between complete sections — is detectable. The framing
// reads and writes exactly its own bytes (no internal buffering or
// read-ahead), so multiple streams compose back to back on one
// io.Reader/io.Writer.
//
// Readers must treat every decoded value as hostile until validated:
// the contract is that arbitrary, truncated or bit-flipped input yields
// an error — never a panic, never a silently corrupt result. The fuzz
// targets in internal/collector pin that contract.
package snapfmt

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// MagicLen is the required length of a stream's magic string.
const MagicLen = 8

// crcTable is the Castagnoli polynomial: hardware-accelerated on the
// platforms ingest daemons run on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ---- writer ----

// Writer frames sections onto an io.Writer. Usage: NewWriter, then for
// each section Begin / payload writes / End, then Close. The writer does
// not buffer; callers batching many small records should marshal them
// into a scratch buffer and Write it in runs (as collector snapshots
// do), or hand in a buffered writer they flush themselves.
type Writer struct {
	w         io.Writer
	crc       hash.Hash32
	inSection bool
	remaining uint64
	scratch   [12]byte
}

// NewWriter writes the stream header and returns the section writer.
// magic must be exactly MagicLen bytes.
func NewWriter(w io.Writer, magic string, version uint32) (*Writer, error) {
	if len(magic) != MagicLen {
		return nil, fmt.Errorf("snapfmt: magic %q must be %d bytes", magic, MagicLen)
	}
	sw := &Writer{w: w}
	var hdr [MagicLen + 4]byte
	copy(hdr[:], magic)
	binary.BigEndian.PutUint32(hdr[MagicLen:], version)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("snapfmt: header: %w", err)
	}
	return sw, nil
}

// Begin opens a section of exactly size payload bytes. id must be
// non-zero (zero is the end marker).
func (sw *Writer) Begin(id uint32, size uint64) error {
	if sw.inSection {
		return fmt.Errorf("snapfmt: Begin inside open section")
	}
	if id == 0 {
		return fmt.Errorf("snapfmt: section id 0 is reserved")
	}
	binary.BigEndian.PutUint32(sw.scratch[0:], id)
	binary.BigEndian.PutUint64(sw.scratch[4:], size)
	if _, err := sw.w.Write(sw.scratch[:12]); err != nil {
		return fmt.Errorf("snapfmt: section header: %w", err)
	}
	sw.inSection = true
	sw.remaining = size
	sw.crc = crc32.New(crcTable)
	return nil
}

// Write appends payload bytes to the open section.
func (sw *Writer) Write(p []byte) (int, error) {
	if !sw.inSection {
		return 0, fmt.Errorf("snapfmt: Write outside section")
	}
	if uint64(len(p)) > sw.remaining {
		return 0, fmt.Errorf("snapfmt: section overflow: %d bytes over the declared size", uint64(len(p))-sw.remaining)
	}
	n, err := sw.w.Write(p)
	sw.crc.Write(p[:n])
	sw.remaining -= uint64(n)
	if err != nil {
		return n, fmt.Errorf("snapfmt: payload: %w", err)
	}
	return n, nil
}

// End closes the open section: the declared size must be fully written,
// and the CRC trailer goes out.
func (sw *Writer) End() error {
	if !sw.inSection {
		return fmt.Errorf("snapfmt: End outside section")
	}
	if sw.remaining != 0 {
		return fmt.Errorf("snapfmt: section short by %d bytes", sw.remaining)
	}
	binary.BigEndian.PutUint32(sw.scratch[0:], sw.crc.Sum32())
	if _, err := sw.w.Write(sw.scratch[:4]); err != nil {
		return fmt.Errorf("snapfmt: crc: %w", err)
	}
	sw.inSection = false
	sw.crc = nil
	return nil
}

// Close writes the end marker. The underlying writer stays open (it may
// carry further streams).
func (sw *Writer) Close() error {
	if sw.inSection {
		return fmt.Errorf("snapfmt: Close inside open section")
	}
	for i := range sw.scratch {
		sw.scratch[i] = 0
	}
	if _, err := sw.w.Write(sw.scratch[:12]); err != nil {
		return fmt.Errorf("snapfmt: end marker: %w", err)
	}
	return nil
}

// ---- reader ----

// Reader decodes a stream written by Writer: NewReader, then Next /
// payload reads / End per section until Next returns io.EOF (the end
// marker). It reads exactly the stream's bytes from the underlying
// reader — nothing past the end marker is consumed.
type Reader struct {
	r         io.Reader
	version   uint32
	crc       hash.Hash32
	inSection bool
	remaining uint64
	scratch   [12]byte
}

// NewReader validates the stream header. magic must match what the
// writer used; the stream's version is available via Version for the
// caller to gate on.
func NewReader(r io.Reader, magic string) (*Reader, error) {
	if len(magic) != MagicLen {
		return nil, fmt.Errorf("snapfmt: magic %q must be %d bytes", magic, MagicLen)
	}
	sr := &Reader{r: r}
	var hdr [MagicLen + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapfmt: header: %w", noEOF(err))
	}
	if string(hdr[:MagicLen]) != magic {
		return nil, fmt.Errorf("snapfmt: bad magic %q, want %q", hdr[:MagicLen], magic)
	}
	sr.version = binary.BigEndian.Uint32(hdr[MagicLen:])
	return sr, nil
}

// Version returns the stream's version word.
func (sr *Reader) Version() uint32 { return sr.version }

// Next reads the next section header. It returns io.EOF — the only
// sentinel callers should treat as "clean end of stream" — when the end
// marker is reached; any truncation or framing damage is a non-EOF
// error.
func (sr *Reader) Next() (id uint32, size uint64, err error) {
	if sr.inSection {
		return 0, 0, fmt.Errorf("snapfmt: Next inside open section")
	}
	if _, err := io.ReadFull(sr.r, sr.scratch[:12]); err != nil {
		return 0, 0, fmt.Errorf("snapfmt: section header: %w", noEOF(err))
	}
	id = binary.BigEndian.Uint32(sr.scratch[0:])
	size = binary.BigEndian.Uint64(sr.scratch[4:])
	if id == 0 {
		if size != 0 {
			return 0, 0, fmt.Errorf("snapfmt: end marker carries size %d", size)
		}
		return 0, 0, io.EOF
	}
	sr.inSection = true
	sr.remaining = size
	sr.crc = crc32.New(crcTable)
	return id, size, nil
}

// AnySize is the size Expect takes for a section whose length the
// caller learns from the header: the payload is read to its end and End
// verifies nothing is left.
const AnySize = ^uint64(0)

// Expect opens the next section and requires it to be section id of
// exactly size payload bytes (AnySize: of whatever size the header
// declares, which is returned). The formats built on this framing have
// a fixed section order and sizes that follow from their meta section,
// so anything else — another id, a size that disagrees, the end marker
// — is structural damage and an error, never io.EOF.
func (sr *Reader) Expect(id uint32, size uint64) (uint64, error) {
	gotID, gotSize, err := sr.Next()
	if err != nil {
		if err == io.EOF {
			return 0, fmt.Errorf("snapfmt: stream ends before section %d", id)
		}
		return 0, err
	}
	if gotID != id {
		return 0, fmt.Errorf("snapfmt: section %d where %d expected", gotID, id)
	}
	if size != AnySize && gotSize != size {
		return 0, fmt.Errorf("snapfmt: section %d is %d bytes, want %d", id, gotSize, size)
	}
	return gotSize, nil
}

// Read consumes payload bytes of the open section, returning io.EOF at
// the section's declared end. Truncated underlying input surfaces as
// io.ErrUnexpectedEOF.
func (sr *Reader) Read(p []byte) (int, error) {
	if !sr.inSection {
		return 0, fmt.Errorf("snapfmt: Read outside section")
	}
	if sr.remaining == 0 {
		return 0, io.EOF
	}
	if uint64(len(p)) > sr.remaining {
		p = p[:sr.remaining]
	}
	n, err := io.ReadFull(sr.r, p)
	sr.crc.Write(p[:n])
	sr.remaining -= uint64(n)
	if err != nil {
		return n, fmt.Errorf("snapfmt: payload: %w", noEOF(err))
	}
	return n, nil
}

// End closes the open section: the payload must be fully consumed, and
// the CRC trailer must match what was read.
func (sr *Reader) End() error {
	if !sr.inSection {
		return fmt.Errorf("snapfmt: End outside section")
	}
	if sr.remaining != 0 {
		return fmt.Errorf("snapfmt: section has %d unread bytes", sr.remaining)
	}
	if _, err := io.ReadFull(sr.r, sr.scratch[:4]); err != nil {
		return fmt.Errorf("snapfmt: crc: %w", noEOF(err))
	}
	want := binary.BigEndian.Uint32(sr.scratch[:4])
	if got := sr.crc.Sum32(); got != want {
		return fmt.Errorf("snapfmt: section crc %08x, want %08x", got, want)
	}
	sr.inSection = false
	sr.crc = nil
	return nil
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside the
// framing, a clean EOF only ever means the stream was cut short, and
// callers looping on io.EOF sentinels must not mistake truncation for
// a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
