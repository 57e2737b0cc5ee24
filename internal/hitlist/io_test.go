package hitlist

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hitlist6/internal/addr"
)

func TestDatasetRoundTrip(t *testing.T) {
	d := NewDataset("round trip corpus")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		// Clustered addresses (shared hi) to exercise delta encoding.
		hi := 0x20010db8_00000000 | uint64(rng.Intn(64))<<16
		d.Add(addr.FromParts(hi, rng.Uint64()))
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name {
		t.Errorf("name: %q", got.Name)
	}
	if got.Len() != d.Len() {
		t.Fatalf("len: %d want %d", got.Len(), d.Len())
	}
	d.Each(func(a addr.Addr) bool {
		if !got.Contains(a) {
			t.Fatalf("missing %s after round trip", a)
		}
		return true
	})
}

func TestDatasetRoundTripProperty(t *testing.T) {
	f := func(addrsRaw [][16]byte, name string) bool {
		if len(name) > 100 {
			name = name[:100]
		}
		d := NewDataset(name)
		for _, raw := range addrsRaw {
			d.Add(addr.Addr(raw))
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadDataset(&buf)
		if err != nil {
			return false
		}
		if got.Len() != d.Len() || got.Name != d.Name {
			return false
		}
		ok := true
		d.Each(func(a addr.Addr) bool {
			if !got.Contains(a) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDatasetCompression(t *testing.T) {
	// Clustered addresses must encode far below 16 bytes each.
	d := NewDataset("dense")
	for i := 0; i < 10000; i++ {
		d.Add(addr.FromParts(0x20010db8_00000000, uint64(i)))
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	perAddr := float64(buf.Len()) / 10000
	if perAddr > 6 {
		t.Errorf("dense corpus encodes at %.1f bytes/addr, want < 6", perAddr)
	}
}

func TestReadDatasetErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOPE............"),
		"truncated":   []byte("HL6D\x01"),
		"bad version": append([]byte("HL6D"), 0x63, 0x00),
	}
	for name, raw := range cases {
		if _, err := ReadDataset(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadDatasetRejectsHugeName(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("HL6D")
	buf.WriteByte(1)                                // version
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // absurd name length
	if _, err := ReadDataset(&buf); err == nil {
		t.Error("expected error for huge name length")
	}
}

func TestAliasListWriteTo(t *testing.T) {
	l := NewAliasList()
	l.Add(addr.MustParse("2001:db8:1:2::").P64())
	l.Add(addr.MustParse("2400:cb00:aaaa:bbbb::").P64())
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# aliased-prefixes: 2") {
		t.Errorf("header missing:\n%s", out)
	}
	for _, want := range []string{"\n2001:db8:1:2::/64\n", "\n2400:cb00:aaaa:bbbb::/64\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("entry %q missing:\n%s", want, out)
		}
	}
}
