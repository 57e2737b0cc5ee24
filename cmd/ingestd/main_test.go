package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"

	"hitlist6/internal/ingest"
)

// TestIngestDatagramSkipsBlankFragments is the regression test for the
// UDP framing bug: splitting a newline-terminated datagram on '\n'
// yields an empty trailing fragment, which must not count as a parse
// error. CRLF framing, whitespace-only lines and comments are equally
// benign; only genuinely malformed lines are bad.
func TestIngestDatagramSkipsBlankFragments(t *testing.T) {
	pipe, err := ingest.New(ingest.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := pipe.NewBatcher()
	var bad atomic.Uint64

	if n := ingestDatagram(b, []byte("1643673600 2001:db8::1 3\n1643673601 2001:db8::2\n"), &bad); n != 2 {
		t.Errorf("newline-terminated datagram: %d events, want 2", n)
	}
	if bad.Load() != 0 {
		t.Errorf("trailing empty fragment counted as %d parse errors", bad.Load())
	}

	if n := ingestDatagram(b, []byte("1643673602 2001:db8::3 1\r\n\r\n# comment\n   \n"), &bad); n != 1 {
		t.Errorf("CRLF/blank/comment datagram: %d events, want 1", n)
	}
	if bad.Load() != 0 {
		t.Errorf("benign lines counted as %d parse errors", bad.Load())
	}

	if n := ingestDatagram(b, []byte("garbage\n1643673603 2001:db8::4\n"), &bad); n != 1 || bad.Load() != 1 {
		t.Errorf("malformed line: %d events, %d bad (want 1 and 1)", n, bad.Load())
	}

	b.Flush()
	if got := pipe.Close().TotalObservations(); got != 4 {
		t.Errorf("merged %d observations, want 4", got)
	}
}

// TestIngestStreamSkipsOverlongLine: one line too long for the replay
// buffer is one malformed line, not the end of the file — the events
// behind it are ingested and the replay ends without an error.
func TestIngestStreamSkipsOverlongLine(t *testing.T) {
	const first, second = "1643673600 2001:db8::1 3\n", "1643673601 2001:db8::2\n"
	garbage := strings.Repeat("x", 100<<10)
	for _, c := range []struct {
		name, stream string
		malformed    uint64
	}{
		{"in the middle", first + garbage + "\n" + second, 1},
		{"one byte over the buffer", first + garbage[:1<<16] + "\n" + second, 1},
		{"twice, the last unterminated", first + garbage + "\n" + second + garbage, 2},
	} {
		pipe, err := ingest.New(ingest.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var bad atomic.Uint64
		if err := ingestStream(pipe, strings.NewReader(c.stream), &bad); err != nil {
			t.Errorf("%s: replay ended with %v", c.name, err)
		}
		if got := pipe.Close().TotalObservations(); got != 2 || bad.Load() != c.malformed {
			t.Errorf("%s: %d events, %d malformed; want 2 and %d", c.name, got, bad.Load(), c.malformed)
		}
	}
}

// TestIngestStreamReassemblesLines: however the reader cuts the stream —
// a byte at a time, mid-line, with or without a final newline — every
// line is decoded once and whole, and a read error ends the replay after
// the bytes that preceded it.
func TestIngestStreamReassemblesLines(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 3000; i++ { // ~100 KiB: several buffers' worth
		fmt.Fprintf(&stream, "16436%05d 2001:db8::%x %d\r\n", i, i+1, i%27)
	}
	stream.WriteString("# comment\n\nnot an event\n1643700000 2001:db8::ffff:1")
	readers := map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"one byte": iotest.OneByteReader,
		"data+EOF": iotest.DataErrReader,
		"timeout":  func(r io.Reader) io.Reader { return iotest.TimeoutReader(iotest.HalfReader(r)) },
	}
	for name, mk := range readers {
		pipe, err := ingest.New(ingest.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var bad atomic.Uint64
		err = ingestStream(pipe, mk(bytes.NewReader(stream.Bytes())), &bad)
		got := pipe.Close().TotalObservations()
		if name == "timeout" {
			// The second read fails: what the first delivered is ingested,
			// its cut-off last line counting as the stream's last.
			if err != iotest.ErrTimeout || got == 0 || got >= 3001 {
				t.Errorf("%s: err=%v after %d events; want the timeout after a first stretch", name, err, got)
			}
			continue
		}
		if err != nil || got != 3001 || bad.Load() != 1 {
			t.Errorf("%s: %d events, %d malformed, err=%v; want 3001, 1, nil", name, got, bad.Load(), err)
		}
	}
}

// TestIngestDatagramZeroAlloc is the deterministic gate on the socket →
// batcher path: in steady state (addresses already in the corpus, batch
// buffers circulating) a 25-line datagram is decoded, routed and
// batched without allocating — and so is a datagram of 25 rejects.
func TestIngestDatagramZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	pipe, err := ingest.New(ingest.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	var events, rejects []byte
	for i := 0; i < 25; i++ {
		events = fmt.Appendf(events, "16436736%02d 2001:db8:85a3:%x::8a2e:370:7334 %d\n", i, i, i)
		rejects = fmt.Appendf(rejects, "16436736%02d 2001:db8:85a3:%x::8a2e:370:733g %d\n", i, i, i)
	}
	b := pipe.NewBatcher()
	var bad atomic.Uint64
	for i := 0; i < 200; i++ { // warm: index grown, batch freelist primed
		ingestDatagram(b, events, &bad)
	}
	b.Flush()
	pipe.Quiesce()
	if avg := testing.AllocsPerRun(500, func() {
		if ingestDatagram(b, events, &bad) != 25 {
			t.Fatal("datagram of events not fully accepted")
		}
	}); avg != 0 {
		t.Errorf("ingestDatagram, 25 events: %.2f allocs/datagram, want 0", avg)
	}
	if avg := testing.AllocsPerRun(500, func() {
		if ingestDatagram(b, rejects, &bad) != 0 {
			t.Fatal("datagram of rejects accepted something")
		}
	}); avg != 0 {
		t.Errorf("ingestDatagram, 25 rejects: %.2f allocs/datagram, want 0", avg)
	}
	if bad.Load() != 501*25 {
		t.Errorf("%d malformed lines counted, want %d", bad.Load(), 501*25)
	}
}

// TestStatsCarriesCorpusTelemetry pins the /stats reply contract: after
// events land in the merged store, the embedded metrics must expose the
// memory telemetry of the flat corpus layout alongside the rates.
func TestStatsCarriesCorpusTelemetry(t *testing.T) {
	d := newTestDaemon(t, "")
	defer d.pipe.Close()
	feed(t, d)
	reply := d.buildStats()
	if reply.UniqueAddrs != 2 {
		t.Fatalf("unique addrs %d, want 2", reply.UniqueAddrs)
	}
	if reply.Metrics.CorpusBytes == 0 || reply.Metrics.BytesPerAddr <= 0 {
		t.Errorf("corpus telemetry missing: %+v", reply.Metrics)
	}
	if reply.UDP != nil {
		t.Errorf("udp block %+v on a daemon with no socket source", reply.UDP)
	}
}

// TestDetectOutagesEndpointShape exercises the /outages reply builder
// against a pipeline with no outage stage (detection disabled path) —
// it must degrade to an empty reply rather than panic.
func TestDetectOutagesEndpointShape(t *testing.T) {
	pipe, err := ingest.New(ingest.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	reply := detectOutages(pipe, 0)
	if reply == nil || len(reply.Events) != 0 || reply.Bins != 0 {
		t.Errorf("empty-pipeline reply: %+v", reply)
	}
}
