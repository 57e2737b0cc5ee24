package addr

import (
	"fmt"
	"strconv"
	"strings"
)

// Prefix is an IPv6 CIDR prefix with length 0–128. The address is stored
// masked, so two Prefix values describing the same network compare equal
// and may be used as map keys.
type Prefix struct {
	addr Addr
	bits uint8
}

// NewPrefix masks a to bits and returns the resulting prefix.
func NewPrefix(a Addr, bits int) (Prefix, error) {
	if bits < 0 || bits > 128 {
		return Prefix{}, fmt.Errorf("addr: invalid prefix length %d", bits)
	}
	return Prefix{addr: Mask(a, bits), bits: uint8(bits)}, nil
}

// MustPrefix is NewPrefix that panics on error.
func MustPrefix(a Addr, bits int) Prefix {
	p, err := NewPrefix(a, bits)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses "2001:db8::/32" notation.
func ParsePrefix(s string) (Prefix, error) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return Prefix{}, fmt.Errorf("addr: missing '/' in prefix %q", s)
	}
	a, err := Parse(s[:i])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return Prefix{}, fmt.Errorf("addr: bad prefix length in %q", s)
	}
	return NewPrefix(a, bits)
}

// MustParsePrefix is ParsePrefix that panics on error.
//
//lint:api the shared prefix literal of every package's tests
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Addr returns the masked base address of the prefix.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length.
func (p Prefix) Bits() int { return int(p.bits) }

// String renders CIDR notation.
func (p Prefix) String() string {
	return p.addr.String() + "/" + strconv.Itoa(int(p.bits))
}

// Contains reports whether a falls inside the prefix.
//
//lint:api the membership check the routing, zone and walk tests hold results to
func (p Prefix) Contains(a Addr) bool {
	return Mask(a, int(p.bits)) == p.addr
}

// Mask zeroes all but the first bits bits of a.
func Mask(a Addr, bits int) Addr {
	if bits >= 128 {
		return a
	}
	if bits <= 0 {
		return Addr{}
	}
	fullBytes := bits / 8
	rem := bits % 8
	var out Addr
	copy(out[:fullBytes], a[:fullBytes])
	if rem > 0 {
		out[fullBytes] = a[fullBytes] & (byte(0xff) << (8 - rem))
	}
	return out
}

// Prefix64 and Prefix48 are comparable keys for the aggregation levels the
// paper uses constantly: per-/64 (customer subnet) and per-/48 (release
// granularity). They are the upper bits of the address packed in a uint64
// for compactness; a /48 key has its low 16 bits zero.
type (
	Prefix64 uint64 // upper 64 bits of the address
	Prefix48 uint64 // upper 48 bits, shifted left 16
)

// P64 returns the address's /64 key.
func (a Addr) P64() Prefix64 { return Prefix64(a.Hi()) }

// P48 returns the address's /48 key.
func (a Addr) P48() Prefix48 { return Prefix48(a.Hi() &^ 0xffff) }

// P48 returns the /48 containing the /64.
func (p Prefix64) P48() Prefix48 { return Prefix48(uint64(p) &^ 0xffff) }

// Addr returns the base address (::) of the /64.
func (p Prefix64) Addr() Addr { return FromParts(uint64(p), 0) }

// Addr returns the base address of the /48.
func (p Prefix48) Addr() Addr { return FromParts(uint64(p), 0) }

// Prefix returns the /64 as a generic Prefix.
func (p Prefix64) Prefix() Prefix { return MustPrefix(p.Addr(), 64) }

// Prefix returns the /48 as a generic Prefix.
func (p Prefix48) Prefix() Prefix { return MustPrefix(p.Addr(), 48) }

// String renders the /64 in CIDR notation.
func (p Prefix64) String() string { return p.Prefix().String() }

// String renders the /48 in CIDR notation.
func (p Prefix48) String() string { return p.Prefix().String() }
