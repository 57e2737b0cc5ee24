package collector

import (
	"encoding/binary"

	"hitlist6/internal/addr"
)

// The address record's wire layout, the one payload every on-disk corpus
// format carries: full snapshots, delta snapshots and the pager's tier
// file. All integers are big-endian.
//
//	address  40 B  key[16]  first i64  last i64  count u32  servers u32
//
// It has one append function and one decode function, and no other code
// knows an offset past the one the pager's chunk search leans on: an
// address record starts with its key.
const AddrRecordWire = 40

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
