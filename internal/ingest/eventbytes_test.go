package ingest

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
)

// parseEventLegacy is the string parser the byte decoder replaced, kept
// as the reference grammar: strings.Fields splitting, strconv-backed
// strict decimals, the timestamp held to the time domain [0, 2^32-1],
// then the address field parsed on its own. FuzzParseEventBytes holds the one-pass decoder to it on every
// input. (The address field goes through addr.Parse, which is the
// production grammar too; what this oracle adds is that scanning the
// address in the middle of a line equals splitting first, and
// addr.FuzzParseBytes holds that grammar to its own reference.)
func parseEventLegacy(line string) (Event, error) {
	strictInt := func(s string, bitSize int) (int64, error) {
		neg := strings.HasPrefix(s, "-")
		digits := s
		if neg {
			digits = s[1:]
		}
		if digits == "" || strings.TrimLeft(digits, "0123456789") != "" {
			return 0, fmt.Errorf("not a decimal integer")
		}
		v, err := strconv.ParseInt(s, 10, bitSize)
		if err != nil {
			return 0, err
		}
		if neg && v == 0 {
			return 0, fmt.Errorf("negative zero")
		}
		return v, nil
	}
	var ev Event
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields) > 3 {
		return ev, fmt.Errorf("ingest: want 'ts addr [server]', got %q", line)
	}
	ts, err := strictInt(fields[0], 64)
	if err != nil {
		return ev, fmt.Errorf("ingest: bad timestamp %q: %v", fields[0], err)
	}
	if ts < 0 || ts > math.MaxUint32 {
		return ev, fmt.Errorf("ingest: timestamp %d outside [0, 2^32-1]", ts)
	}
	a, err := addr.Parse(fields[1])
	if err != nil {
		return ev, err
	}
	server := int64(-1)
	if len(fields) == 3 {
		server, err = strictInt(fields[2], 32)
		if err != nil {
			return ev, fmt.Errorf("ingest: bad server %q: %v", fields[2], err)
		}
		if server < -1 || server >= collector.MaxServers {
			return ev, fmt.Errorf("ingest: server index %d out of [-1,%d)", server, collector.MaxServers)
		}
	}
	return Event{Addr: a, Time: ts, Server: int32(server)}, nil
}

// legacyLines is the line walk the daemon used to do, on the reference
// parser: split on '\n', trim, skip blanks and # comments, parse.
func legacyLines(data string) (events []Event, malformed int) {
	for _, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		if ev, err := parseEventLegacy(line); err != nil {
			malformed++
		} else {
			events = append(events, ev)
		}
	}
	return events, malformed
}

// eventCorners are the inputs whose handling the single pass owns:
// separators (ASCII, U+0085, U+00A0, U+2003, invalid UTF-8), decimal
// spellings at the int64, time-domain and server-range edges, what may
// follow each field, and line framing. They seed both fuzzers and are checked one by
// one in TestDecodeCorners.
var eventCorners = []string{
	"1643068800 2001:db8::1 3",
	"1643068800 2001:db8::1",
	" 1643068800\t2001:db8::1 ",
	"1643068800 ::ffff:192.0.2.1 1",
	"-9223372036854775808 :: -1",
	"9223372036854775807 ff02::fb 26",
	"9223372036854775808 ::",
	"-0 :: 0",
	"007 2001:db8::1 031",
	"1 2001:db8::1 +3",
	"1\u00a02001:db8::1",  // non-ASCII whitespace separator
	"1 2001:db8::1\u2003", // non-ASCII trailing whitespace
	"1 2001:db8::1 2 3",
	"\xff\xfe 2001:db8::1",
	"   ",
	// Separators.
	"1\u20032001:db8::1\u00a07", "\u00a01 ::1", "1\u0085::1\u00853\u0085", "1\v::1\f3\r",
	"1\xc2::1", "1 ::1\xe2\x80", "1 ::1 \xa0", "1\x00::1", "1 ::1\x003",
	// Timestamps: the time domain's edges; 18, 19 and 20 digits, valid
	// int64 spellings all outside the domain; leading zeros, signs.
	"0 ::", "4294967295 ::", "4294967296 ::", "0004294967295 ::", "-4294967296 ::",
	"999999999999999999 ::", "1000000000000000000 ::", "9223372036854775807 ::",
	"9223372036854775808 ::", "18446744073709551616 ::", "99999999999999999999 ::",
	"00000000000000000000000001643068800 ::", "-1 ::", "-9223372036854775809 ::",
	"-00 ::", "-0000000001 ::", "- ::", "+1 ::", "1- ::", "1x ::", "0x10 ::", "1_0 ::", "1.5 ::",
	// Server index: -1 and [0, 32), by value.
	"1 :: -1", "1 :: -01", "1 :: -0", "1 :: -2", "1 :: 0", "1 :: 31", "1 :: 32", "1 :: 007",
	"1 :: 0032", "1 :: 2147483647", "1 :: 2147483648", "1 :: 99999999999999999999", "1 :: 3x",
	"1 :: 3 #", "1 :: #", "1 :: -", "1 :: three",
	// What may follow the address.
	"1 ::1x", "1 ::1%eth0 3", "1 [::1] 3", "1 ::1/64", "1 1:2:3:4:5:6:7:8:9", "1 1::2::3 4",
	"1 ::ffff:1.2.3.4 5", "1 ::1.2.3.4.5", "1 12345:: 0", "1 : 0", "1 ::: 0", "1 2001:DB8::A 0",
	// Line framing: ParseEventBytes treats '\n' as whitespace, DecodeLine
	// as the end of the line.
	"1 ::1 3\n", "1 ::1\n", "1\n::1", "1 ::1\n3", "1 ::1 3\r\n", "\n", "\r\n", "# comment",
	"  # comment\n1 ::1", "#", "1 ::1 # trailing", "1 ::1\n2 ::2 2\n\ngarbage\n3 ::3",
	"garbage", "1", "1 ", "1 ::1 3 ", "\u00a0", "\u2003#x\n",
}

// FuzzParseEventBytes is the differential property of the one-pass
// decoder, in both framings: on every input ParseEventBytes must agree
// with the reference parser on accept/reject and on the decoded Event,
// and walking the input with DecodeLine must yield the events and the
// malformed count of the reference line walk, advancing on every call.
// (FuzzParseEvent separately pins the round-trip property.)
//
// Run continuously with:
//
//	go test ./internal/ingest -run '^$' -fuzz '^FuzzParseEventBytes$' -fuzztime 30s
func FuzzParseEventBytes(f *testing.F) {
	for _, seed := range eventCorners {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstLegacy(t, data) })
}

func checkAgainstLegacy(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := ParseEventBytes(data)
	want, wantErr := parseEventLegacy(string(data))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("ParseEventBytes(%q) err=%v, legacy err=%v: accept/reject drift", data, gotErr, wantErr)
	}
	if got != want {
		t.Fatalf("ParseEventBytes(%q) = %+v, legacy = %+v", data, got, want)
	}

	wantEvents, wantBad := legacyLines(string(data))
	var events []Event
	bad := 0
	for rest := data; len(rest) > 0; {
		ev, n, err := DecodeLine(rest)
		if n <= 0 || n > len(rest) || (n < len(rest) && rest[n-1] != '\n') {
			t.Fatalf("DecodeLine(%q) spans %d bytes: not a line of the input", rest, n)
		}
		switch err {
		case nil:
			events = append(events, ev)
		case ErrNoEvent:
		default:
			bad++
		}
		rest = rest[n:]
	}
	if bad != wantBad || !slices.Equal(events, wantEvents) {
		t.Fatalf("DecodeLine walk of %q: %d malformed, events %+v; legacy walk %d, %+v",
			data, bad, events, wantBad, wantEvents)
	}
}

// TestDecodeCorners runs the differential on every corner by name, so a
// drift shows up in `go test` and not only under -fuzz.
func TestDecodeCorners(t *testing.T) {
	for _, c := range eventCorners {
		checkAgainstLegacy(t, []byte(c))
	}
	// The notable ones, pinned to a side.
	for line, want := range map[string]Event{
		"1\u20032001:db8::1\u00a07":              {Addr: addr.MustParse("2001:db8::1"), Time: 1, Server: 7},
		"00000000000000000000000001643068800 ::": {Time: 1643068800, Server: -1},
		"0 :: -01":                               {Time: 0, Server: -1},
		"4294967295 2001:DB8::A 007\r\n":         {Addr: addr.MustParse("2001:db8::a"), Time: 1<<32 - 1, Server: 7},
		"1\n::1":                                 {Addr: addr.MustParse("::1"), Time: 1, Server: -1},
	} {
		if ev, err := ParseEventBytes([]byte(line)); err != nil || ev != want {
			t.Errorf("ParseEventBytes(%q) = %+v, %v; want %+v", line, ev, err, want)
		}
	}
	for _, line := range []string{
		"9223372036854775808 ::", "-0 ::", "1 :: -0", "1 :: 32", "1 :: -2", "1 ::1x", "1x ::1", "# c", "",
	} {
		if ev, err := ParseEventBytes([]byte(line)); err == nil {
			t.Errorf("ParseEventBytes(%q) accepted: %+v", line, ev)
		}
	}
	// Well-formed int64 timestamps outside the time domain: rejected with
	// their own reason, in both framings, never wrapped into range.
	for _, line := range []string{
		"-9223372036854775808 :: -01", "9223372036854775807 2001:DB8::A 007\r\n",
		"999999999999999999 ::", "1000000000000000000 ::", "-1 ::", "-0000000001 ::",
		"-86400 ::1 0", "4294967296 ::", "-4294967296 ::",
	} {
		if ev, err := ParseEventBytes([]byte(line)); !errors.Is(err, errTimeDomain) {
			t.Errorf("ParseEventBytes(%q) = %+v, %v; want errTimeDomain", line, ev, err)
		}
		if ev, _, err := DecodeLine([]byte(line)); !errors.Is(err, errTimeDomain) {
			t.Errorf("DecodeLine(%q) = %+v, %v; want errTimeDomain", line, ev, err)
		}
	}
}

// TestParseEventBytesZeroAlloc pins the headline property of the wire
// decoder: no line allocates, whichever way it goes — not for the
// fields, the address or the timestamp of a valid one, and not for the
// reason a malformed one is rejected, so a datagram of garbage costs no
// more per line than a datagram of events. (The race detector changes
// allocation behavior, so the exact-zero claim is only asserted in
// non-race runs.)
func TestParseEventBytesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	for _, c := range []struct {
		line   string
		accept bool
	}{
		{"1643068800 2001:db8::1 3", true},
		{"1643068800 2001:0db8:85a3:0000:0000:8a2e:0370:7334", true},
		{"1643068800 ::ffff:192.0.2.1 26\n", true},
		{"99999999999999999999999999 2001:db8::1", false},
		{"4294967296 2001:db8::1 3", false},
		{"1643068800 2001:db8::zz 3", false},
		{"GET / HTTP/1.1", false},
		{"1643068800 2001:db8::1 32", false},
		{"1643068800 2001:db8::1 3 4", false},
		{"# comment", false},
	} {
		line := []byte(c.line)
		avg := testing.AllocsPerRun(100, func() {
			if _, err := ParseEventBytes(line); (err == nil) != c.accept {
				t.Fatalf("ParseEventBytes(%q): err=%v, want accept=%v", line, err, c.accept)
			}
			if _, _, err := DecodeLine(line); (err == nil) != c.accept {
				t.Fatalf("DecodeLine(%q): err=%v, want accept=%v", line, err, c.accept)
			}
		})
		if avg != 0 {
			t.Errorf("%q: %.1f allocs/op, want 0", line, avg)
		}
	}
}
