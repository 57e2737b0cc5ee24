package addr

import (
	"testing"
	"testing/quick"
)

func TestEUI64KnownVector(t *testing.T) {
	// RFC 4291 App. A example: MAC 00:00:5E:10:00:52 ->
	// IID 0200:5EFF:FE10:0052 (U/L bit inverted, FFFE inserted).
	m := MAC{0x00, 0x00, 0x5e, 0x10, 0x00, 0x52}
	iid := EUI64FromMAC(m)
	if uint64(iid) != 0x02005efffe100052 {
		t.Fatalf("EUI64FromMAC: got %016x", uint64(iid))
	}
	if !iid.IsEUI64() {
		t.Fatal("IsEUI64 false for constructed EUI-64")
	}
	back, err := MACFromEUI64(iid)
	if err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Fatalf("round trip: got %v want %v", back, m)
	}
}

func TestEUI64RoundTripProperty(t *testing.T) {
	f := func(m MAC) bool {
		iid := EUI64FromMAC(m)
		if !iid.IsEUI64() {
			return false
		}
		back, err := MACFromEUI64(iid)
		return err == nil && back == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsEUI64Negative(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xdeadbeefcafef00d, 0x02005eff_fd100052} {
		if IID(v).IsEUI64() {
			t.Errorf("IID %016x should not be EUI-64", v)
		}
	}
	if _, err := MACFromEUI64(IID(42)); err == nil {
		t.Error("MACFromEUI64 should fail on non-EUI-64 IID")
	}
}

func TestEUI64Addr(t *testing.T) {
	p := MustParse("2001:db8:1:2::").P64()
	m := MAC{0xa8, 0xaa, 0x20, 0x01, 0x02, 0x03}
	a := FromParts(uint64(p), uint64(EUI64FromMAC(m)))
	if a.P64() != p {
		t.Error("prefix not preserved")
	}
	got, err := MACFromEUI64(a.IID())
	if err != nil || got != m {
		t.Errorf("MAC recovery: got %v err %v", got, err)
	}
	// The U/L inversion must show in the textual address: a8 ^ 02 = aa.
	if a.String() != "2001:db8:1:2:aaaa:20ff:fe01:203" {
		t.Errorf("unexpected address %q", a)
	}
}

func TestMACStrings(t *testing.T) {
	m := MAC{0xf0, 0x02, 0x20, 0xab, 0xcd, 0xef}
	if got := m.String(); got != "f0:02:20:ab:cd:ef" {
		t.Errorf("MAC String: %q", got)
	}
	if got := m.OUI().String(); got != "F0:02:20" {
		t.Errorf("OUI String: %q", got)
	}
}

func TestNICSuffixOffsets(t *testing.T) {
	m := MAC{0, 1, 2, 0x00, 0x00, 0x10}
	if m.NICSuffix() != 0x10 {
		t.Fatalf("NICSuffix: got %x", m.NICSuffix())
	}
	plus := m.AddOffset(5)
	if plus.NICSuffix() != 0x15 {
		t.Errorf("AddOffset(+5): got %x", plus.NICSuffix())
	}
	if plus.OUI() != m.OUI() {
		t.Error("AddOffset changed the OUI")
	}
	minus := m.AddOffset(-0x20)
	// 0x10 - 0x20 wraps mod 2^24.
	if minus.NICSuffix() != 0xfffff0 {
		t.Errorf("AddOffset(-0x20): got %x", minus.NICSuffix())
	}
	if got := m.SuffixOffset(plus); got != 5 {
		t.Errorf("SuffixOffset: got %d want 5", got)
	}
	if got := plus.SuffixOffset(m); got != -5 {
		t.Errorf("SuffixOffset reverse: got %d want -5", got)
	}
}

func TestSuffixOffsetProperty(t *testing.T) {
	f := func(m MAC, off int32) bool {
		off %= 1 << 22 // stay within the wrap-free band
		shifted := m.AddOffset(off)
		return m.SuffixOffset(shifted) == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
