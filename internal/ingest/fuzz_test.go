package ingest

import (
	"strings"
	"testing"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
)

// FuzzParseEvent pins the stream codec's safety and strictness:
//
//   - never panic, on any input;
//   - every accepted line satisfies the event invariants (server in
//     [-1, MaxServers), time in the domain [0, 2^32-1]);
//   - accepted events round-trip: AppendText(ParseEventBytes(line)) parses
//     back to the identical event — the codec accepts nothing it could
//     not itself have written (modulo IPv6 textual aliases and
//     whitespace, which must normalize, not drift).
//
// Run continuously with:
//
//	go test ./internal/ingest -run '^$' -fuzz '^FuzzParseEvent$' -fuzztime 30s
func FuzzParseEvent(f *testing.F) {
	f.Add("1643068800 2001:db8::1 3")
	f.Add("1643068800 2001:db8::1")
	f.Add("-5 ::1 0")
	f.Add("+5 ::1 0")
	f.Add("1643068800 2001:db8::1 -1")
	f.Add("1643068800 2001:db8::1 31")
	f.Add("1643068800 2001:db8::1 32")
	f.Add("4294967295 ff02::fb 26")
	f.Add("4294967296 ff02::fb 26")
	f.Add("9223372036854775807 ff02::fb 26")
	f.Add("9223372036854775808 ::")
	f.Add("   ")
	f.Add("\t\r\n")
	f.Add("1643068800  2001:0db8:0000:0000:0000:0000:0000:0001  07")
	f.Add("1643068800 ::ffff:192.0.2.1 1")
	f.Add("-0 :: 0")
	f.Add("1 2001:db8::1 +3")
	for _, seed := range eventCorners {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, line string) {
		ev, err := ParseEventBytes([]byte(line))
		if err != nil {
			return
		}
		if ev.Server < -1 || ev.Server >= collector.MaxServers {
			t.Fatalf("accepted server index %d from %q", ev.Server, line)
		}
		if !collector.InTimeDomain(ev.Time) {
			t.Fatalf("accepted timestamp %d outside the time domain from %q", ev.Time, line)
		}
		// Round trip: what we accepted must re-encode and re-parse to the
		// same event.
		enc := string(ev.AppendText(nil))
		if !strings.HasSuffix(enc, "\n") {
			t.Fatalf("AppendText emitted no newline for %q", line)
		}
		again, err := ParseEventBytes([]byte(strings.TrimSuffix(enc, "\n")))
		if err != nil {
			t.Fatalf("re-encoding of accepted line %q does not parse: %q: %v", line, enc, err)
		}
		if again != ev {
			t.Fatalf("round trip drifted: %q -> %+v -> %q -> %+v", line, ev, enc, again)
		}
	})
}

// TestParseEventStrict spells out the over-accepts the fuzz property
// closed: codec-alien spellings that strconv would have waved through.
func TestParseEventStrict(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"1643068800",
		"1643068800 2001:db8::1 3 4",
		"+1643068800 2001:db8::1",     // '+' timestamp: AppendText never writes it
		"1643068800 2001:db8::1 +3",   // '+' server
		"-0 2001:db8::1",              // negative zero
		"1643068800 2001:db8::1 -2",   // below the -1 sentinel
		"1643068800 2001:db8::1 32",   // at MaxServers: would saturate
		"1643068800 2001:db8::1 9999", // far past the mask
		"0x10 2001:db8::1",
		"1_0 2001:db8::1",
		"1643068800 not-an-address",
		"1643068800 2001:db8::1 three",
		"99999999999999999999 2001:db8::1", // i64 overflow
		"-86400 ::1 0",                     // before 1970: outside the time domain
		"4294967296 2001:db8::1",           // past 2106-02-07: outside the time domain
		"9223372036854775807 ff02::fb 26",  // int64 max: outside the time domain
	}
	for _, line := range bad {
		if ev, err := ParseEventBytes([]byte(line)); err == nil {
			t.Errorf("ParseEvent(%q) accepted: %+v", line, ev)
		}
	}

	good := map[string]Event{
		"1643068800 2001:db8::1 3":  {Addr: addr.MustParse("2001:db8::1"), Time: 1643068800, Server: 3},
		"1643068800 2001:db8::1":    {Addr: addr.MustParse("2001:db8::1"), Time: 1643068800, Server: -1},
		"1643068800 2001:db8::1 -1": {Addr: addr.MustParse("2001:db8::1"), Time: 1643068800, Server: -1},
		"0 ::1 0":                   {Addr: addr.MustParse("::1"), Time: 0, Server: 0},
		"4294967295 ::1 0":          {Addr: addr.MustParse("::1"), Time: 1<<32 - 1, Server: 0},
		"007 2001:db8::1 031":       {Addr: addr.MustParse("2001:db8::1"), Time: 7, Server: 31},
		" 1643068800\t2001:db8::1 ": {Addr: addr.MustParse("2001:db8::1"), Time: 1643068800, Server: -1},
	}
	for line, want := range good {
		ev, err := ParseEventBytes([]byte(line))
		if err != nil {
			t.Errorf("ParseEventBytes(%q): %v", line, err)
			continue
		}
		if ev != want {
			t.Errorf("ParseEventBytes(%q) = %+v, want %+v", line, ev, want)
		}
	}
}
