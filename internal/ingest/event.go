package ingest

import (
	"bytes"
	"errors"
	"math/bits"
	"strconv"
	"unicode"
	"unicode/utf8"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
)

// Event is one NTP query sighting entering the pipeline: the client's
// source address, the Unix-seconds timestamp, and the vantage server
// that saw it (-1 when the stream carries no vantage attribution).
type Event struct {
	Addr   addr.Addr
	Time   int64
	Server int32
}

// shardOf maps an address to its shard via addr.Hash64, so all
// sightings of one address land on one shard. The shard is the hash
// scaled into [0, shards) — its high bits. An address table picks home
// slots with the low bits of the same hash, so taking the shard from the
// low end too (hash % shards) would leave a table of one shard's
// addresses, at a power-of-two count, holding keys that agree in
// exactly the bits it spreads by. The table's one-byte slot tags take
// bits 32..38, which neither end uses.
func shardOf(a addr.Addr, shards int) int {
	if shards <= 1 {
		return 0
	}
	hi, _ := bits.Mul64(a.Hash64(), uint64(shards))
	return int(hi)
}

// What a line can be besides an event. Sentinels, not formatted
// messages: a hostile datagram is all rejects, so rejecting a line must
// cost no more than accepting one — no allocation, no echo of input.
var (
	// ErrNoEvent is a blank line or a '#' comment: nothing to ingest and
	// nothing wrong.
	ErrNoEvent = errors.New("ingest: blank line or comment")

	errFields     = errors.New("ingest: want 'ts addr [server]'")
	errTimestamp  = errors.New("ingest: bad timestamp")
	errTimeDomain = errors.New("ingest: timestamp outside [0, 2^32-1]")
	errServer     = errors.New("ingest: bad server index")
)

// Byte classes of the line framing. Fields are separated the way
// strings.Fields separates them — runs of Unicode whitespace — and the
// two framings differ in one byte: a datagram or file is many lines, so
// there '\n' ends the line; ParseEventBytes is handed one line, so there
// it is whitespace like the rest.
const (
	clsSpace = 1 + iota // separates fields
	clsEOL              // ends the line
)

var (
	linesClass   = [256]uint8{'\t': clsSpace, '\v': clsSpace, '\f': clsSpace, '\r': clsSpace, ' ': clsSpace, '\n': clsEOL}
	oneLineClass = [256]uint8{'\t': clsSpace, '\v': clsSpace, '\f': clsSpace, '\r': clsSpace, ' ': clsSpace, '\n': clsSpace}
)

// skipSpace returns the index of the first byte at or after i that is
// not whitespace. Multi-byte runes go through unicode.IsSpace, the test
// strings.Fields and bytes.TrimSpace use; no whitespace rune contains a
// '\n' byte, so a line's end is never skipped.
func skipSpace(b []byte, i int, cls *[256]uint8) int {
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if cls[c] != clsSpace {
				break
			}
			i++
		} else if r, w := utf8.DecodeRune(b[i:]); unicode.IsSpace(r) {
			i += w
		} else {
			break
		}
	}
	return i
}

// decimal reads the integer at b[i:] the way the codec writes one — an
// optional '-', then digits, value in the signed bits-wide range — and
// returns it with the index of the first byte after the digits.
// strconv.ParseInt is deliberately not used: it also accepts a leading
// '+' and an explicit "-0", neither of which AppendText ever emits, and
// a wire codec that accepts what it never writes invites silent producer
// drift (found by FuzzParseEvent's round-trip property).
func decimal(b []byte, i int, bits uint) (v int64, end int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// The magnitude limit: 2^(bits-1) for negative values, one less for
	// positive — exactly ParseInt's range.
	limit := uint64(1) << (bits - 1)
	if !neg {
		limit--
	}
	cut, rem := limit/10, limit%10
	var u uint64
	start := i
	for ; i < len(b); i++ {
		d := uint64(b[i] - '0')
		if d > 9 {
			break
		}
		if u > cut || (u == cut && d > rem) {
			return 0, i, false
		}
		u = u*10 + d
	}
	// Negative zero is judged by value, not spelling: "-0", "-00" alike.
	if i == start || (neg && u == 0) {
		return 0, i, false
	}
	if neg {
		// -u is correct even at the 2^63 boundary, where int64(u) alone
		// would already be MinInt64.
		return -int64(u), i, true
	}
	return int64(u), i, true
}

// decode reads one event from the front of b in a single forward pass —
// leading whitespace, timestamp digits, the address (addr.Scan), the
// optional server index, trailing whitespace through the end of the
// line — and returns the index it stopped at. With an error that index
// is at or before the line's end, never past it. The parser is strict:
// exactly the bytes AppendText emits round-trip, and every accepted line
// re-encodes to a line that parses to the same event.
func decode(b []byte, cls *[256]uint8) (Event, int, error) {
	i := skipSpace(b, 0, cls)
	if i == len(b) || cls[b[i]] == clsEOL || b[i] == '#' {
		return Event{}, i, ErrNoEvent
	}
	ts, i, ok := decimal(b, i, 64)
	if !ok {
		return Event{}, i, errTimestamp
	}
	if !collector.InTimeDomain(ts) {
		return Event{}, i, errTimeDomain
	}
	// A field ends at whitespace and nowhere else: "12x" is one bad
	// field, and a line that stops after the timestamp is one short.
	j := skipSpace(b, i, cls)
	if j == i || j == len(b) || cls[b[j]] == clsEOL {
		return Event{}, i, errFields
	}
	a, n, err := addr.Scan(b[j:])
	if err != nil {
		return Event{}, j, err
	}
	i = j + n
	server := int64(-1)
	if j = skipSpace(b, i, cls); j < len(b) && cls[b[j]] != clsEOL {
		if j == i {
			return Event{}, i, errFields
		}
		if server, i, ok = decimal(b, j, 32); !ok {
			return Event{}, j, errServer
		}
		// -1 means "no vantage attribution"; anything else below zero is
		// malformed, and indices at or past the collector's bitmask width
		// would silently mis-attribute (saturate onto the top bit), so the
		// codec rejects them instead.
		if server < -1 || server >= collector.MaxServers {
			return Event{}, j, errServer
		}
		if j = skipSpace(b, i, cls); j < len(b) && cls[b[j]] != clsEOL {
			return Event{}, i, errFields // junk on the index, or a fourth field
		}
	}
	if j < len(b) {
		j++ // the newline
	}
	return Event{Addr: a, Time: ts, Server: int32(server)}, j, nil
}

// ParseEventBytes decodes one event line of the pipeline's text framing
// straight from packet bytes:
//
//	<unix-seconds> <ipv6-address> [<server-index>]
//
// The timestamp must lie in the corpus's time domain, [0, 2^32-1]
// (1970-01-01 to 2106-02-07 UTC; see collector.InTimeDomain). A missing
// server index means no vantage attribution (-1). This is the format
// `ingestd` accepts on files, stdin and UDP datagrams. Every byte
// of line is the line, newlines included (they are whitespace here), and
// a blank or comment line is an error: ErrNoEvent. No allocation on any
// input, accepted or rejected.
func ParseEventBytes(line []byte) (Event, error) {
	ev, _, err := decode(line, &oneLineClass)
	return ev, err
}

// DecodeLine decodes the first line of buf, a datagram or a stretch of a
// file, and returns how many bytes the line spans, its newline included,
// so that buf[n:] is the next line. err is nil with an event,
// ErrNoEvent for a blank line or '#' comment, and a reject reason for a
// malformed line — which is skipped whole, up to its newline. A
// timestamp outside the time domain, [0, 2^32-1] Unix seconds
// (1970-01-01 to 2106-02-07 UTC), is malformed with its own reason.
func DecodeLine(buf []byte) (Event, int, error) {
	ev, n, err := decode(buf, &linesClass)
	if err != nil {
		if nl := bytes.IndexByte(buf[n:], '\n'); nl >= 0 {
			n += nl + 1
		} else {
			n = len(buf)
		}
	}
	return ev, n, err
}

// AppendText appends the event in ParseEventBytes' line format (with
// trailing newline) — the writer side of the stream codec.
func (e Event) AppendText(dst []byte) []byte {
	dst = strconv.AppendInt(dst, e.Time, 10)
	dst = append(dst, ' ')
	dst = append(dst, e.Addr.String()...)
	if e.Server >= 0 {
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(e.Server), 10)
	}
	return append(dst, '\n')
}
