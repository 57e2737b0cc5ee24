// Package addr implements the IPv6 address machinery the paper's analyses
// are built on: a compact 128-bit address value type, Interface Identifier
// (IID) extraction, EUI-64 encoding and MAC recovery, IPv4-embedded address
// detection, nibble-level normalized Shannon entropy, prefix arithmetic for
// the /32–/64 aggregations the paper uses, and the seven addressing
// categories of Figure 5.
//
// Addr is a value type ([16]byte under the hood) so it can key maps without
// allocation, following the fixed-size-endpoint idiom used by high-volume
// packet processing libraries.
package addr

import (
	"encoding/binary"
	"strconv"
	"strings"
)

// Addr is an IPv6 address as a comparable 16-byte value.
type Addr [16]byte

// MAC is a 48-bit IEEE 802 MAC address as a comparable value type.
type MAC [6]byte

// Parse parses an IPv6 address in any RFC 4291 textual form (full,
// compressed with "::", embedded IPv4 dotted-quad suffix). The grammar
// is Scan's; this is ParseBytes for a caller that holds a string.
func Parse(s string) (Addr, error) {
	return ParseBytes([]byte(s))
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(s string) Addr {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the address in canonical RFC 5952 form (lowercase,
// longest run of zero groups compressed, ties to the leftmost run, runs of
// length one not compressed).
func (a Addr) String() string {
	var groups [8]uint16
	for i := range groups {
		groups[i] = uint16(a[2*i])<<8 | uint16(a[2*i+1])
	}
	// Find longest run of zero groups (length >= 2).
	bestStart, bestLen := -1, 1
	runStart, runLen := -1, 0
	for i := 0; i <= 8; i++ {
		if i < 8 && groups[i] == 0 {
			if runStart < 0 {
				runStart, runLen = i, 0
			}
			runLen++
			continue
		}
		if runStart >= 0 && runLen > bestLen {
			bestStart, bestLen = runStart, runLen
		}
		runStart, runLen = -1, 0
	}
	var b strings.Builder
	for i := 0; i < 8; i++ {
		if i == bestStart {
			b.WriteString("::")
			i += bestLen - 1
			continue
		}
		if i > 0 && !(bestStart >= 0 && i == bestStart+bestLen) {
			b.WriteByte(':')
		}
		b.WriteString(strconv.FormatUint(uint64(groups[i]), 16))
	}
	if bestStart == 0 && bestLen == 8 {
		return "::"
	}
	s := b.String()
	return s
}

// Hi returns the upper 64 bits (the network portion).
func (a Addr) Hi() uint64 { return binary.BigEndian.Uint64(a[:8]) }

// Lo returns the lower 64 bits (the Interface Identifier).
func (a Addr) Lo() uint64 { return binary.BigEndian.Uint64(a[8:]) }

// FromParts builds an address from 64-bit network and IID halves.
func FromParts(hi, lo uint64) Addr {
	var a Addr
	for i := 7; i >= 0; i-- {
		a[i] = byte(hi)
		hi >>= 8
	}
	for i := 15; i >= 8; i-- {
		a[i] = byte(lo)
		lo >>= 8
	}
	return a
}

// IID is the lower 64 bits of an IPv6 address as a comparable value.
type IID uint64

// IID returns the address's Interface Identifier.
func (a Addr) IID() IID { return IID(a.Lo()) }

// IsZero reports whether the address is all zeros ("::").
func (a Addr) IsZero() bool { return a == Addr{} }

// Less reports whether a sorts before b in canonical (numeric) order:
// the one definition of "sorted addresses" shared by the collector's
// canonical encoding, dataset serialization and deterministic campaign
// ordering.
func (a Addr) Less(b Addr) bool {
	if ha, hb := a.Hi(), b.Hi(); ha != hb {
		return ha < hb
	}
	return a.Lo() < b.Lo()
}

// WithIID returns a copy of the address with its lower 64 bits replaced.
func (a Addr) WithIID(iid IID) Addr { return FromParts(a.Hi(), uint64(iid)) }
