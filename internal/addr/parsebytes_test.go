package addr

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// parseReference is the strings.Split parser that was Parse until the
// byte walk replaced it, kept verbatim as the oracle: the one production
// implementation of the grammar has to be checked against something it
// is not.
func parseReference(s string) (Addr, error) {
	var a Addr
	if s == "" {
		return a, fmt.Errorf("addr: empty address")
	}
	// Handle the optional zone (rejected) and surrounding brackets.
	if strings.ContainsAny(s, "%[]") {
		return a, fmt.Errorf("addr: zones/brackets not supported: %q", s)
	}
	// Split on "::" (at most one allowed).
	var headStr, tailStr string
	switch parts := strings.Split(s, "::"); len(parts) {
	case 1:
		headStr = parts[0]
	case 2:
		headStr, tailStr = parts[0], parts[1]
	default:
		return a, fmt.Errorf("addr: multiple '::' in %q", s)
	}
	hasGap := strings.Contains(s, "::")

	parseGroups := func(str string, allowV4 bool) ([]uint16, error) {
		if str == "" {
			return nil, nil
		}
		fields := strings.Split(str, ":")
		out := make([]uint16, 0, len(fields)+1)
		for i, f := range fields {
			if strings.Contains(f, ".") {
				// Embedded IPv4: must be the final field of the address.
				if !allowV4 || i != len(fields)-1 {
					return nil, fmt.Errorf("addr: misplaced IPv4 in %q", s)
				}
				v4, err := parseReferenceIPv4(f)
				if err != nil {
					return nil, err
				}
				out = append(out, uint16(v4>>16), uint16(v4&0xffff))
				continue
			}
			if f == "" {
				return nil, fmt.Errorf("addr: empty group in %q", s)
			}
			if len(f) > 4 {
				return nil, fmt.Errorf("addr: group too long in %q", s)
			}
			v, err := strconv.ParseUint(f, 16, 16)
			if err != nil {
				return nil, fmt.Errorf("addr: bad group %q in %q", f, s)
			}
			out = append(out, uint16(v))
		}
		return out, nil
	}

	head, err := parseGroups(headStr, !hasGap)
	if err != nil {
		return a, err
	}
	tail, err := parseGroups(tailStr, true)
	if err != nil {
		return a, err
	}
	total := len(head) + len(tail)
	if hasGap {
		if total >= 8 {
			return a, fmt.Errorf("addr: '::' with full groups in %q", s)
		}
	} else if total != 8 {
		return a, fmt.Errorf("addr: need 8 groups, got %d in %q", total, s)
	}
	for i, g := range head {
		a[2*i] = byte(g >> 8)
		a[2*i+1] = byte(g)
	}
	for i, g := range tail {
		pos := 8 - len(tail) + i
		a[2*pos] = byte(g >> 8)
		a[2*pos+1] = byte(g)
	}
	return a, nil
}

func parseReferenceIPv4(s string) (uint32, error) {
	octets := strings.Split(s, ".")
	if len(octets) != 4 {
		return 0, fmt.Errorf("addr: bad IPv4 %q", s)
	}
	var v uint32
	for _, o := range octets {
		n, err := strconv.ParseUint(o, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("addr: bad IPv4 octet %q", o)
		}
		v = v<<8 | uint32(n)
	}
	return v, nil
}

// parseCorners are the inputs whose handling the single pass owns: where
// the "::" sits, group and octet lengths, dotted-quad placement, case,
// and every way a colon can be misplaced. They seed the fuzzer and are
// checked one by one in TestParseBytesTable.
var parseCorners = []string{
	"", "::", "::1", "2001:db8::1", "2001:0db8:0000:0000:0000:0000:0000:0001",
	"1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8:9", "1::2::3", "a:::b", "a::::b",
	"::ffff:192.0.2.1", "1:2:3:4:5:6:1.2.3.4", "::1.2.3.4.5", "::0.0.0.000000001",
	"::256.1.1.1", "fe80::1%eth0", "[::1]", "2001:DB8::A", "12345::", ":::",
	"1::", "::%", "0x1::", "1_0::", "1.2.3.4", "::ffff:1.2..3",
	// "::" at the start, the end and the middle; with 7 and with 8 groups.
	"::2:3:4:5:6:7:8", "1:2:3:4:5:6:7::", "1:2:3::6:7:8", "1:2:3:4::5:6:7",
	"1:2:3:4:5:6:7:8::", "::1:2:3:4:5:6:7:8", "1:2:3:4::5:6:7:8", "1::2:3:4:5:6:7:8",
	// Dotted quad in the head (no "::"), in the tail, misplaced, over-counted.
	"0:0:0:0:0:ffff:10.0.0.1", "64:ff9b::10.0.0.1", "::10.0.0.1", "1::10.0.0.1",
	"1:2:3:4:5:6:7:1.2.3.4", "::1:2:3:4:5:6:1.2.3.4", "1.2.3.4::", "1.2.3.4:5::",
	"::1.2.3.4:5", "1:2:3:4:5:1.2.3.4", "::1.2.3.4.", "::1.2.3.", "::.1.2.3", "::1..2.3",
	"::000000001.2.3.4", "::0255.0.0.0", "::00256.0.0.0", "::1a.2.3.4", "::1.2.3.4a",
	"::1.2.3.a", "::255.255.255.255", "::1.2.3.4::", "::a.1.2.3",
	// Group length: 4 is the limit, leading zeros count, a fifth digit fails.
	"0001::", "00001::", "::00000", "::fffff", "::ffff", "1:2:3:4:5:6:7:00008",
	// Colons: leading, trailing, doubled at either end.
	":", ":1", "1:", ":1::", "::1:", "1:2:3:4:5:6:7:", ":1:2:3:4:5:6:7:8", "1::2:",
	// Case and bytes outside the grammar.
	"ABCD:EF01:2345:6789:abcd:ef01:2345:6789", "FE80::Aa", "g::", "::g", "2001:db8::1 ",
	" ::1", "::1\n", "::\x00", "\xc2\xa0::1", "::1/64", "::-1", "::+1",
}

// FuzzParseBytes pins the byte walk to parseReference: the two must
// agree on accept/reject and on the decoded address for every input,
// Parse must agree with ParseBytes, and Scan must report the whole input
// as the address's span whenever ParseBytes accepts it.
//
// Run continuously with:
//
//	go test ./internal/addr -run '^$' -fuzz '^FuzzParseBytes$' -fuzztime 30s
func FuzzParseBytes(f *testing.F) {
	for _, seed := range parseCorners {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := ParseBytes(data)
		want, wantErr := parseReference(string(data))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("ParseBytes(%q) err=%v, reference err=%v: accept/reject drift", data, gotErr, wantErr)
		}
		if gotErr == nil && got != want {
			t.Fatalf("ParseBytes(%q) = %v, reference = %v", data, got, want)
		}
		if s, sErr := Parse(string(data)); (sErr == nil) != (gotErr == nil) || s != got {
			t.Fatalf("Parse(%q) = %v (err=%v) disagrees with ParseBytes (%v, err=%v)", data, s, sErr, got, gotErr)
		}
		if a, n, err := Scan(data); gotErr == nil && (err != nil || n != len(data) || a != got) {
			t.Fatalf("Scan(%q) = %v, %d, %v; ParseBytes accepted the whole input as %v", data, a, n, err, got)
		}
	})
}

// TestParseBytesTable spells out the corners the fuzz property covers
// statistically, each against the reference, and pins which side of
// accept/reject the notable ones fall on.
func TestParseBytesTable(t *testing.T) {
	for _, s := range parseCorners {
		got, gotErr := ParseBytes([]byte(s))
		want, wantErr := parseReference(s)
		if (gotErr == nil) != (wantErr == nil) || got != want {
			t.Errorf("ParseBytes(%q) = %v, %v; reference %v, %v", s, got, gotErr, want, wantErr)
		}
	}
	accept := map[string]string{
		"::": "::", "::1": "::1", "1::": "1::", "2001:DB8::a": "2001:db8::a",
		"1:2:3:4:5:6:7::":         "1:2:3:4:5:6:7:0",
		"::2:3:4:5:6:7:8":         "0:2:3:4:5:6:7:8",
		"1:2:3::6:7:8":            "1:2:3::6:7:8",
		"0:0:0:0:0:ffff:10.0.0.1": "::ffff:a00:1",
		"64:ff9b::10.0.0.1":       "64:ff9b::a00:1",
		"1:2:3:4:5:6:1.2.3.4":     "1:2:3:4:5:6:102:304",
		"::0.0.0.000000001":       "::1",
		"::000000001.2.3.4":       "::102:304",
		"::0255.0.0.0":            "::ff00:0",
		"0001::":                  "1::",
	}
	for s, want := range accept {
		got, err := ParseBytes([]byte(s))
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", s, err)
		} else if got.String() != want {
			t.Errorf("ParseBytes(%q) = %v, want %v", s, got, want)
		}
	}
	reject := []string{
		"", ":", ":::", "1::2::3", "a::::b", "1:2:3:4:5:6:7:8:9",
		"1:2:3:4:5:6:7", "12345::", "00001::", "g::", "0x1::", "1_0::",
		"fe80::1%eth0", "[::1]", "::256.1.1.1", "::1.2.3", "::1.2.3.4.5",
		"1.2.3.4::5:6:7:8", "1:2:3:4:5:6:7:1.2.3.4", "::ffff:1.2..3",
		"1:2:3:4:5:6:7:8::", "::1:2:3:4:5:6:7:8", "1:2:3:4::5:6:7:8",
		"1:", "::1:", ":1", "2001:db8::1 ", " ::1",
	}
	for _, s := range reject {
		if a, err := ParseBytes([]byte(s)); err == nil {
			t.Errorf("ParseBytes(%q) accepted: %v", s, a)
		}
	}
}

// TestScanStopsAtFirstForeignByte pins the contract the event decoder
// builds on: Scan reads the address and reports where it ends, leaving
// the byte after it to the caller.
func TestScanStopsAtFirstForeignByte(t *testing.T) {
	for in, span := range map[string]int{
		"2001:db8::1 26\n": 11, "::\n": 2, "::ffff:1.2.3.4\t0": 14, "1::%eth0": 3, "::1]": 3,
	} {
		a, n, err := Scan([]byte(in))
		if err != nil || n != span || a != MustParse(in[:span]) {
			t.Errorf("Scan(%q) = %v, %d, %v; want the %d-byte address", in, a, n, err, span)
		}
	}
	if _, n, err := Scan([]byte("1:2 ")); err == nil || n != 0 {
		t.Errorf("Scan of a short address: n=%d err=%v, want 0 and an error", n, err)
	}
}

// TestParseZeroAlloc: the grammar allocates on no path — not on accept,
// not on reject, and not for the string wrapper /probe calls.
func TestParseZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	for _, s := range []string{
		"2001:db8:abcd:ef01:2345:6789:abcd:ef01", "::ffff:192.168.1.1", "fe80::1%eth0", "1::2::3", "",
	} {
		b := []byte(s)
		if avg := testing.AllocsPerRun(100, func() { _, _ = ParseBytes(b) }); avg != 0 {
			t.Errorf("ParseBytes(%q): %.1f allocs/op, want 0", s, avg)
		}
		if avg := testing.AllocsPerRun(100, func() { _, _ = Parse(s) }); avg != 0 {
			t.Errorf("Parse(%q): %.1f allocs/op, want 0", s, avg)
		}
	}
}
