package addr

import (
	"encoding/binary"
	"errors"
)

// Reject reasons of the text grammar. Sentinels, not formatted messages:
// the ingest path rejects garbage at line rate and must not allocate
// doing it, and no reason echoes input bytes back to a log.
var (
	errEmpty  = errors.New("addr: empty address")
	errGroup  = errors.New("addr: bad group (want 1-4 hex digits)")
	errColon  = errors.New("addr: misplaced ':' or more than one '::'")
	errCount  = errors.New("addr: wrong number of groups")
	errIPv4   = errors.New("addr: bad embedded IPv4")
	errSuffix = errors.New("addr: trailing bytes after the address (zones and brackets are not supported)")
)

// Byte classes of the grammar. A class below 16 is the value of a hex
// digit (0-9, a-f, A-F — the set strconv.ParseUint(s, 16, 16) accepts).
const (
	clsColon = 16 + iota
	clsDot
	clsOther // no address contains it: Scan stops here
)

var textClass = func() (t [256]uint8) {
	for i := range t {
		t[i] = clsOther
	}
	for c := 0; c < 10; c++ {
		t['0'+c] = uint8(c)
	}
	for c := 0; c < 6; c++ {
		t['a'+c], t['A'+c] = uint8(10+c), uint8(10+c)
	}
	t[':'], t['.'] = clsColon, clsDot
	return t
}()

// What the walk last saw besides hex digits. Only read while the current
// group has no digits, so digits need not update it.
const (
	atStart = iota // nothing yet
	atColon        // a single ':' after a group
	atGap          // the "::"
	atQuad         // a complete dotted quad: the address ends here
)

// Scan decodes the IPv6 address at the front of b and returns how many
// bytes it spans: up to the first byte no address contains (anything
// but a hex digit, ':' or '.') or the end of b; n is 0 with an error.
// It is the one implementation of the text grammar — any RFC 4291 form:
// full, compressed with one "::", dotted-quad IPv4 in the last 32 bits,
// hex in either case, octets with any number of leading zeros; no zone,
// no brackets — and reads each byte once, allocating nothing on accept
// or reject. The event decoder calls it in the middle of a line;
// ParseBytes and Parse are Scan plus "nothing may follow".
func Scan(b []byte) (a Addr, n int, err error) {
	var (
		hi, lo uint64 // groups read since the start or the "::", right-aligned
		v      uint64 // current group; at most four significant nibbles
		nd     int    // digits in the current group, leading zeros included
		g      int    // groups read so far; counted, judged at the end
		gap    = -1   // group index of the "::"
		last   = atStart
		// The groups before the "::", set aside while the tail is read.
		headHi, headLo uint64
	)
	i := 0
walk:
	for ; i < len(b); i++ {
		c := textClass[b[i]]
		switch {
		case c < 16:
			// A fifth significant nibble fits neither a group nor an
			// octet (≥ 10000); leading zeros are judged where the group
			// ends, because "000000001.2.3.4" is a legal octet.
			if v = v<<4 | uint64(c); v > 0xffff {
				return Addr{}, 0, errGroup
			}
			nd++
		case c == clsColon:
			switch {
			case nd > 0:
				if nd > 4 {
					return Addr{}, 0, errGroup
				}
				hi, lo = hi<<16|lo>>48, lo<<16|v
				g++
				v, nd, last = 0, 0, atColon
			case last == atColon && gap < 0:
				gap, last = g, atGap
				headHi, headLo, hi, lo = hi, lo, 0, 0
			case last == atStart && i+1 < len(b) && b[i+1] == ':':
				i++
				gap, last = 0, atGap
			default: // lone leading ':', ":::", a second "::"
				return Addr{}, 0, errColon
			}
		case c == clsDot:
			v4, end, ok := scanQuad(b, i, uint32(v), nd)
			if !ok {
				return Addr{}, 0, errIPv4
			}
			hi, lo = hi<<32|lo>>32, lo<<32|uint64(v4)
			g += 2
			i, nd, last = end, 0, atQuad
			break walk
		default:
			break walk
		}
	}
	switch {
	case nd > 0:
		if nd > 4 {
			return Addr{}, 0, errGroup
		}
		hi, lo = hi<<16|lo>>48, lo<<16|v
		g++
	case last == atStart:
		return Addr{}, 0, errEmpty
	case last == atColon: // trailing single ':'
		return Addr{}, 0, errColon
	}
	if gap < 0 {
		if g != 8 {
			return Addr{}, 0, errCount
		}
	} else {
		if g >= 8 { // "::" must stand for at least one group
			return Addr{}, 0, errCount
		}
		// The head's groups go to the top of the 128 bits; the tail's
		// already sit at the bottom.
		if s := 16 * uint(8-gap); s >= 64 {
			hi |= headLo << (s - 64)
		} else {
			hi |= headHi<<s | headLo>>(64-s)
			lo |= headLo << s
		}
	}
	binary.BigEndian.PutUint64(a[:8], hi)
	binary.BigEndian.PutUint64(a[8:], lo)
	return a, i, nil
}

// scanQuad finishes a dotted quad whose first octet the group walk has
// already read as hex (nibbles v, nd digits) and whose first '.' is at
// b[dot]. It returns the 32-bit value and the index after the fourth
// octet. An octet is what strconv.ParseUint(o, 10, 8) accepts: digits
// only, any number of leading zeros, at most 255. The quad must end the
// address, so any address byte after it — a fifth octet, a ':' — fails.
func scanQuad(b []byte, dot int, v uint32, nd int) (v4 uint32, end int, ok bool) {
	if nd == 0 {
		return 0, dot, false
	}
	for shift := 12; shift >= 0; shift -= 4 {
		d := v >> shift & 15
		if v4 = v4*10 + d; d > 9 || v4 > 255 {
			return 0, dot, false
		}
	}
	i := dot
	for octet := 1; octet < 4; octet++ {
		if i == len(b) || b[i] != '.' {
			return 0, i, false
		}
		i++
		var o uint32
		start := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if o = o*10 + uint32(b[i]-'0'); o > 255 {
				return 0, i, false
			}
		}
		if i == start {
			return 0, i, false
		}
		v4 = v4<<8 | o
	}
	if i < len(b) && textClass[b[i]] != clsOther {
		return 0, i, false
	}
	return v4, i, true
}

// ParseBytes parses b, all of it, as an IPv6 address.
func ParseBytes(b []byte) (Addr, error) {
	a, n, err := Scan(b)
	if err == nil && n != len(b) {
		return Addr{}, errSuffix
	}
	return a, err
}
