package collector

import (
	"encoding/binary"
	"fmt"

	"hitlist6/internal/addr"
)

// The slab entries' wire layouts, shared by every on-disk corpus format:
// full snapshots and delta snapshots carry all three, the pager's tier
// file carries address records. All integers are big-endian.
//
//	address  40 B  key[16]  first i64  last i64  count u32  servers u32
//	IID      36 B  key u64  first i64  last i64  count u32  spans u32  p64n u32
//	span     28 B  p64 u64  first i64  last i64  next u32
//
// Each entry has one append function and one decode function, and no
// other code knows an offset past the one the pager's chunk search
// leans on: an address record starts with its key. A decoder takes
// exactly one entry's bytes; the IID and span decoders also bounds-check
// the slab reference their entry carries, so nobody can load one
// without the check.
const (
	AddrRecordWire = 40
	iidEntryWire   = 36
	spanEntryWire  = 28
)

// AppendAddrRecord appends one address record's wire form to b.
func AppendAddrRecord(b []byte, a addr.Addr, r AddrRecord) []byte {
	b = append(b, a[:]...)
	b = binary.BigEndian.AppendUint64(b, uint64(r.First))
	b = binary.BigEndian.AppendUint64(b, uint64(r.Last))
	b = binary.BigEndian.AppendUint32(b, r.Count)
	return binary.BigEndian.AppendUint32(b, r.Servers)
}

// DecodeAddrRecord decodes the AddrRecordWire bytes at the front of b.
// Every bit pattern is a valid record; what a key may collide with is
// the index rebuild's question.
func DecodeAddrRecord(b []byte) (addr.Addr, AddrRecord) {
	_ = b[AddrRecordWire-1]
	return addr.Addr(b[0:16]), AddrRecord{
		First:   int64(binary.BigEndian.Uint64(b[16:])),
		Last:    int64(binary.BigEndian.Uint64(b[24:])),
		Count:   binary.BigEndian.Uint32(b[32:]),
		Servers: binary.BigEndian.Uint32(b[36:]),
	}
}

func appendIIDEntry(b []byte, e *iidEntry) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(e.key))
	b = binary.BigEndian.AppendUint64(b, uint64(e.first))
	b = binary.BigEndian.AppendUint64(b, uint64(e.last))
	b = binary.BigEndian.AppendUint32(b, e.count)
	b = binary.BigEndian.AppendUint32(b, e.spans)
	return binary.BigEndian.AppendUint32(b, e.p64n)
}

// decodeIIDEntry decodes one promoted-IID entry bound for a corpus of
// spanN span nodes: a span-chain head past the slab is an error.
func decodeIIDEntry(b []byte, spanN uint64) (iidEntry, error) {
	_ = b[iidEntryWire-1]
	e := iidEntry{
		key:   addr.IID(binary.BigEndian.Uint64(b[0:])),
		first: int64(binary.BigEndian.Uint64(b[8:])),
		last:  int64(binary.BigEndian.Uint64(b[16:])),
		count: binary.BigEndian.Uint32(b[24:]),
		spans: binary.BigEndian.Uint32(b[28:]),
		p64n:  binary.BigEndian.Uint32(b[32:]),
	}
	if e.spans != spanNone && uint64(e.spans) >= spanN {
		return e, fmt.Errorf("span head %d out of %d", e.spans, spanN)
	}
	return e, nil
}

func appendSpanNode(b []byte, n *spanNode) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(n.p64))
	b = binary.BigEndian.AppendUint64(b, uint64(n.first))
	b = binary.BigEndian.AppendUint64(b, uint64(n.last))
	return binary.BigEndian.AppendUint32(b, n.next)
}

// decodeSpanNode decodes one span node bound for a corpus of spanN
// span nodes: a chain link past the slab is an error.
func decodeSpanNode(b []byte, spanN uint64) (spanNode, error) {
	_ = b[spanEntryWire-1]
	n := spanNode{
		p64:   addr.Prefix64(binary.BigEndian.Uint64(b[0:])),
		first: int64(binary.BigEndian.Uint64(b[8:])),
		last:  int64(binary.BigEndian.Uint64(b[16:])),
		next:  binary.BigEndian.Uint32(b[24:]),
	}
	if n.next != spanNone && uint64(n.next) >= spanN {
		return n, fmt.Errorf("chains to %d out of %d", n.next, spanN)
	}
	return n, nil
}
