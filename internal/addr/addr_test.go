package addr

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestParseCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"::", "::"},
		{"::1", "::1"},
		{"2001:db8::", "2001:db8::"},
		{"2001:0db8:0000:0000:0000:0000:0000:0001", "2001:db8::1"},
		{"2001:db8:0:0:1:0:0:1", "2001:db8::1:0:0:1"},
		{"fe80::200:5aee:feaa:20a2", "fe80::200:5aee:feaa:20a2"},
		{"2001:DB8::A", "2001:db8::a"},
		{"1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8"},
		{"::ffff:192.168.1.1", "::ffff:c0a8:101"},
		{"64:ff9b::1.2.3.4", "64:ff9b::102:304"},
		{"0:0:0:0:0:0:0:0", "::"},
	}
	for _, c := range cases {
		a, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := a.String(); got != c.want {
			t.Errorf("Parse(%q).String(): got %q want %q", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", ":::", "1:2:3", "1:2:3:4:5:6:7:8:9", "g::1", "12345::",
		"1::2::3", "::1%eth0", "[::1]", "1.2.3.4", "::256.1.1.1",
		"::1.2.3", "1.2.3.4::1", "2001:db8:::1",
		"1:2:3:4:5:6:7:8::", "::1:2:3:4:5:6:7:8",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		}
	}
}

// TestParseAgainstNetip cross-validates our parser/formatter against the
// standard library on randomized addresses.
func TestParseAgainstNetip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var raw [16]byte
		rng.Read(raw[:])
		// Inject zero runs to exercise compression.
		if i%3 == 0 {
			start := rng.Intn(12)
			n := rng.Intn(16 - start)
			for j := start; j < start+n; j++ {
				raw[j] = 0
			}
		}
		std := netip.AddrFrom16(raw)
		var a Addr = raw
		if got, want := a.String(), std.String(); got != want {
			t.Fatalf("format mismatch for %x: got %q want %q", raw, got, want)
		}
		back, err := Parse(std.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", std.String(), err)
		}
		if back != a {
			t.Fatalf("round trip mismatch for %q", std.String())
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	f := func(raw [16]byte) bool {
		var a Addr = raw
		b, err := Parse(a.String())
		return err == nil && b == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHiLoFromParts(t *testing.T) {
	a := MustParse("2001:db8:1:2:a:b:c:d")
	if a.Hi() != 0x20010db800010002 {
		t.Errorf("Hi: got %x", a.Hi())
	}
	if a.Lo() != 0x000a000b000c000d {
		t.Errorf("Lo: got %x", a.Lo())
	}
	if FromParts(a.Hi(), a.Lo()) != a {
		t.Error("FromParts round trip failed")
	}
}

func TestFromPartsProperty(t *testing.T) {
	f := func(hi, lo uint64) bool {
		a := FromParts(hi, lo)
		return a.Hi() == hi && a.Lo() == lo && a.IID() == IID(lo)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWithIID(t *testing.T) {
	a := MustParse("2001:db8::1")
	b := a.WithIID(IID(0xdeadbeefcafef00d))
	if b.Hi() != a.Hi() {
		t.Error("WithIID changed the network half")
	}
	if uint64(b.IID()) != 0xdeadbeefcafef00d {
		t.Errorf("IID: got %x", b.IID())
	}
}

func TestMaskAndPrefix(t *testing.T) {
	a := MustParse("2001:db8:abcd:ef01:2345:6789:abcd:ef01")
	cases := []struct {
		bits int
		want string
	}{
		{0, "::"},
		{16, "2001::"},
		{32, "2001:db8::"},
		{48, "2001:db8:abcd::"},
		{52, "2001:db8:abcd:e000::"},
		{64, "2001:db8:abcd:ef01::"},
		{128, "2001:db8:abcd:ef01:2345:6789:abcd:ef01"},
	}
	for _, c := range cases {
		if got := Mask(a, c.bits).String(); got != c.want {
			t.Errorf("Mask(%d): got %q want %q", c.bits, got, c.want)
		}
	}
}

func TestPrefixParseContains(t *testing.T) {
	p := MustParsePrefix("2001:db8::/32")
	if p.Bits() != 32 {
		t.Errorf("bits: got %d", p.Bits())
	}
	if !p.Contains(MustParse("2001:db8:ffff::1")) {
		t.Error("should contain 2001:db8:ffff::1")
	}
	if p.Contains(MustParse("2001:db9::1")) {
		t.Error("should not contain 2001:db9::1")
	}
	if got := p.String(); got != "2001:db8::/32" {
		t.Errorf("String: got %q", got)
	}
}

func TestPrefixMaskedEquality(t *testing.T) {
	p1 := MustParsePrefix("2001:db8::1/32")
	p2 := MustParsePrefix("2001:db8:ffff::/32")
	if p1 != p2 {
		t.Error("prefixes covering the same network should compare equal")
	}
}

func TestPrefixErrors(t *testing.T) {
	for _, s := range []string{"2001:db8::", "2001:db8::/129", "2001:db8::/-1", "2001:db8::/x", "nonsense/32"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q): expected error", s)
		}
	}
}

func TestP64P48(t *testing.T) {
	a := MustParse("2001:db8:abcd:ef01::42")
	if got := a.P64().String(); got != "2001:db8:abcd:ef01::/64" {
		t.Errorf("P64: got %q", got)
	}
	if got := a.P48().String(); got != "2001:db8:abcd::/48" {
		t.Errorf("P48: got %q", got)
	}
	if a.P64().P48() != a.P48() {
		t.Error("P64 -> P48 disagreement")
	}
	if !a.P48().Prefix().Contains(a) {
		t.Error("P48 prefix should contain the address")
	}
}

func TestP48GroupsSiblings(t *testing.T) {
	a := MustParse("2001:db8:abcd:0001::1")
	b := MustParse("2001:db8:abcd:ff00::2")
	c := MustParse("2001:db8:abce::1")
	if a.P48() != b.P48() {
		t.Error("same /48 expected")
	}
	if a.P48() == c.P48() {
		t.Error("different /48 expected")
	}
}
