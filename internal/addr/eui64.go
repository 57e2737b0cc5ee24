package addr

import "fmt"

// EUI-64 SLAAC embeds a MAC address into an IID by inserting 0xFF 0xFE
// between the third and fourth bytes of the MAC and inverting the
// Universal/Local bit (bit 1, i.e. the second-least-significant bit) of the
// first byte. The paper exploits exactly this reversible construction for
// tracking (§5.2) and geolocation (§5.3).

// ulBit is the Universal/Local bit within the first MAC byte.
const ulBit = 0x02

// EUI64FromMAC builds the 64-bit IID for a MAC per RFC 4291 App. A.
func EUI64FromMAC(m MAC) IID {
	b0 := m[0] ^ ulBit
	return IID(uint64(b0)<<56 | uint64(m[1])<<48 | uint64(m[2])<<40 |
		0xff<<32 | 0xfe<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5]))
}

// IsEUI64 reports whether the IID has the 0xFFFE marker in bytes 4–5 of the
// IID (bytes 11–12 of the address). A randomly generated IID matches with
// probability 2^-16, which the paper's §5.1 explicitly accounts for.
func (iid IID) IsEUI64() bool {
	return uint64(iid)>>24&0xffff == 0xfffe
}

// MACFromEUI64 recovers the embedded MAC from an EUI-64 IID. It returns an
// error when the IID lacks the 0xFFFE marker.
func MACFromEUI64(iid IID) (MAC, error) {
	if !iid.IsEUI64() {
		return MAC{}, fmt.Errorf("addr: IID %016x is not EUI-64", uint64(iid))
	}
	v := uint64(iid)
	return MAC{
		byte(v>>56) ^ ulBit,
		byte(v >> 48),
		byte(v >> 40),
		byte(v >> 16),
		byte(v >> 8),
		byte(v),
	}, nil
}

// OUI is the 24-bit Organizationally Unique Identifier: the vendor-assigned
// first three bytes of a MAC address.
type OUI [3]byte

// OUI returns the MAC's vendor prefix.
func (m MAC) OUI() OUI { return OUI{m[0], m[1], m[2]} }

// String renders the MAC in colon-separated lowercase hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// String renders the OUI in colon-separated uppercase hex, the IEEE
// registry convention.
func (o OUI) String() string {
	return fmt.Sprintf("%02X:%02X:%02X", o[0], o[1], o[2])
}

// NICSuffix returns the device-specific lower 24 bits of the MAC as an
// integer, used by the geolocation offset-linkage analysis.
func (m MAC) NICSuffix() uint32 {
	return uint32(m[3])<<16 | uint32(m[4])<<8 | uint32(m[5])
}

// WithNICSuffix returns a MAC with the same OUI and the given 24-bit
// device suffix.
func (m MAC) WithNICSuffix(suffix uint32) MAC {
	return MAC{m[0], m[1], m[2], byte(suffix >> 16), byte(suffix >> 8), byte(suffix)}
}

// AddOffset returns the MAC whose 24-bit NIC suffix differs by off
// (mod 2^24), keeping the OUI fixed. Vendors commonly assign the wired and
// wireless interfaces of one device nearby suffixes within the same OUI;
// this is the structure the Rye–Beverly geolocation linkage exploits.
func (m MAC) AddOffset(off int32) MAC {
	s := int64(m.NICSuffix()) + int64(off)
	const mod = 1 << 24
	s = ((s % mod) + mod) % mod
	return m.WithNICSuffix(uint32(s))
}

// SuffixOffset returns the signed difference to.NICSuffix()-m.NICSuffix()
// wrapped to the range (-2^23, 2^23].
func (m MAC) SuffixOffset(to MAC) int32 {
	d := int64(to.NICSuffix()) - int64(m.NICSuffix())
	const mod = 1 << 24
	if d > mod/2 {
		d -= mod
	}
	if d <= -mod/2 {
		d += mod
	}
	return int32(d)
}
