package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/telemetry"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// testPayloads renders n datagrams of several valid event lines each
// (with some framing noise sprinkled in), plus the flat list of lines
// a reference collector can replay.
func testPayloads(n int) (payloads [][]byte, lines []string) {
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		for j := 0; j < 5; j++ {
			line := fmt.Sprintf("%d 2001:db8:%x::%x %d", 1643068800+i, i%7, j+1, (i+j)%27)
			lines = append(lines, line)
			buf.WriteString(line)
			if j%2 == 0 {
				buf.WriteString("\r\n") // CRLF framing must parse too
			} else {
				buf.WriteByte('\n')
			}
		}
		buf.WriteString("# comment line\n\n") // noise: skipped, not counted bad
		payloads = append(payloads, buf.Bytes())
	}
	return payloads, lines
}

// runUDPIngest loads a fresh socket's receive buffer with payloads,
// drains it through ingestUDP using the given reader, and returns the
// merged corpus plus the socket telemetry. Sending everything before
// the reader starts keeps the test deterministic: nothing races the
// kernel buffer (the payload volume stays far under its default size).
func runUDPIngest(t *testing.T, mkReader func(net.PacketConn) datagramReader, payloads [][]byte) (*collector.Collector, *udpSource, uint64) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sender, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := sender.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	sender.Close()

	cfg := ingest.DefaultConfig(2)
	pipe, err := ingest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := newUDPSource(telemetry.NewRegistry())
	var bad atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		ingestUDP(pipe, pc, mkReader(pc), &bad, discardLogger(), u)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for u.datagrams.Value() < uint64(len(payloads)) {
		if time.Now().After(deadline) {
			t.Fatalf("reader saw %d/%d datagrams", u.datagrams.Value(), len(payloads))
		}
		time.Sleep(time.Millisecond)
	}
	pc.Close()
	<-done
	if n := bad.Load(); n != 0 {
		t.Errorf("%d lines counted malformed in a clean stream", n)
	}
	return pipe.Close(), u, bad.Load()
}

func canonical(t *testing.T, c *collector.Collector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteCanonical(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestUDPLoopback runs the platform's preferred reader end to
// end: every line of every datagram must land in the merged corpus,
// byte-identical to a serial replay of the same lines, with the socket
// telemetry accounting for every datagram and event.
func TestIngestUDPLoopback(t *testing.T) {
	payloads, lines := testPayloads(40)
	serial := collector.New()
	for _, line := range lines {
		ev, err := ingest.ParseEventBytes([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		serial.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
	}

	merged, u, _ := runUDPIngest(t, newDatagramReader, payloads)
	if got, want := canonical(t, merged), canonical(t, serial); !bytes.Equal(got, want) {
		t.Errorf("UDP-ingested corpus differs from serial replay (%d vs %d bytes)", len(got), len(want))
	}
	if got := u.datagrams.Value(); got != uint64(len(payloads)) {
		t.Errorf("datagrams counter %d, want %d", got, len(payloads))
	}
	if got := u.events.Value(); got != uint64(len(lines)) {
		t.Errorf("socket events counter %d, want %d", got, len(lines))
	}
}

// TestUDPReaderEquivalence holds the recvmmsg reader and the portable
// single-datagram reader to identical results over the same datagram
// stream — the license for the build tags: whichever reader a platform
// gets, the corpus is the same. Skips where only one reader exists.
func TestUDPReaderEquivalence(t *testing.T) {
	probe, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, hasBatch := newPlatformBatchReader(probe, udpReadBatch, udpBufSize)
	probe.Close()
	if !hasBatch {
		t.Skip("no batched reader on this platform; nothing to compare")
	}

	payloads, _ := testPayloads(60)
	mergedBatch, uBatch, _ := runUDPIngest(t, func(pc net.PacketConn) datagramReader {
		r, ok := newPlatformBatchReader(pc, udpReadBatch, udpBufSize)
		if !ok {
			t.Fatal("batched reader vanished")
		}
		return r
	}, payloads)
	mergedSingle, uSingle, _ := runUDPIngest(t, func(pc net.PacketConn) datagramReader {
		return newSingleReader(pc, udpBufSize)
	}, payloads)

	if got, want := canonical(t, mergedBatch), canonical(t, mergedSingle); !bytes.Equal(got, want) {
		t.Errorf("recvmmsg and fallback readers produced different corpora (%d vs %d bytes)", len(got), len(want))
	}
	if uBatch.events.Value() != uSingle.events.Value() {
		t.Errorf("socket event counts differ: recvmmsg %d, fallback %d",
			uBatch.events.Value(), uSingle.events.Value())
	}
}

// TestIngestUDPIdleFlush pins the adaptive flush: a single datagram on
// an otherwise idle socket must reach the live store within a few flush
// ticks — the old per-datagram-Flush behavior is gone, so only the
// deadline-driven flush can publish it.
func TestIngestUDPIdleFlush(t *testing.T) {
	cfg := ingest.DefaultConfig(1)
	cfg.SnapshotInterval = 10 * time.Millisecond
	pipe, sender, stop := startUDPIngest(t, cfg)
	defer stop()
	if _, err := sender.Write([]byte("1643068800 2001:db8::1 3\n")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pipe.Store().NumAddrs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle flush never published the event to the live view")
		}
		time.Sleep(time.Millisecond)
	}
}

// startUDPIngest runs ingestUDP over a fresh loopback socket into a
// pipeline built from cfg and returns the pipeline, a connected sender
// and a stop function.
func startUDPIngest(t *testing.T, cfg ingest.Config) (*ingest.Pipeline, net.Conn, func()) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := ingest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bad atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		ingestUDP(pipe, pc, newDatagramReader(pc), &bad, discardLogger(), newUDPSource(telemetry.NewRegistry()))
	}()
	sender, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	return pipe, sender, func() {
		sender.Close()
		pc.Close()
		<-done
		pipe.Close()
	}
}

// TestIngestUDPFlushesWhenSocketRunsDry: the tail of a burst does not
// wait for the udpFlushEvery cadence. Each trial sends one datagram 5 ms
// after a flush — 45 ms before the cadence would next fire — and times
// it to a worker. The best of five must be well inside the cadence; on
// the cadence alone every trial takes those 45 ms.
func TestIngestUDPFlushesWhenSocketRunsDry(t *testing.T) {
	pipe, sender, stop := startUDPIngest(t, ingest.DefaultConfig(1))
	defer stop()
	best := time.Hour
	for trial := uint64(1); trial <= 5; trial++ {
		time.Sleep(5 * time.Millisecond)
		sent := time.Now()
		if _, err := sender.Write([]byte("1643068800 2001:db8::1 3\n")); err != nil {
			t.Fatal(err)
		}
		for pipe.Metrics().Processed < trial {
			if time.Since(sent) > 5*time.Second {
				t.Fatalf("datagram %d never reached a worker", trial)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if d := time.Since(sent); d < best {
			best = d
		}
	}
	if best > 10*time.Millisecond {
		t.Errorf("one datagram into an idle socket reached a worker in %v at best, want under 10ms", best)
	}
}

// TestIngestUDPTrickleKeepsCadence: a sender that never leaves the
// socket empty for udpIdleFlush gets the udpFlushEvery cadence — events
// reach a worker while it is still sending, in a handful of batches,
// not one per datagram.
func TestIngestUDPTrickleKeepsCadence(t *testing.T) {
	pipe, sender, stop := startUDPIngest(t, ingest.DefaultConfig(1))
	defer stop()
	const span, gap = 160 * time.Millisecond, 100 * time.Microsecond
	start := time.Now()
	sent, seenMidway := 0, false
	for next := start; time.Since(start) < span; next = next.Add(gap) {
		for time.Now().Before(next) {
			// Spin: a sleeping sender oversleeps udpIdleFlush.
		}
		if _, err := sender.Write([]byte("1643068800 2001:db8::1 3\n")); err != nil {
			t.Fatal(err)
		}
		sent++
		if !seenMidway && time.Since(start) > span-20*time.Millisecond {
			seenMidway = true
			if pipe.Metrics().Processed == 0 {
				t.Errorf("nothing reached a worker %v into a steady trickle", time.Since(start))
			}
		}
	}
	batches := pipe.Metrics().Batches
	if limit := uint64(sent / 8); batches > limit {
		t.Errorf("%d datagrams %v apart were flushed as %d batches, want at most %d: the idle flush fired under load",
			sent, gap, batches, limit)
	}
}

// BenchmarkUDPIngest measures events/sec through the whole socket path
// on loopback: datagrams of 20 event lines each, read by the platform's
// preferred reader, parsed and folded by the pipeline. The sender
// paces itself against the socket-level event counter so the kernel
// receive buffer never overflows (UDP would silently drop, corrupting
// the measurement); the reported rate is events actually processed.
func BenchmarkUDPIngest(b *testing.B) {
	const linesPerDatagram = 20
	var payload bytes.Buffer
	for j := 0; j < linesPerDatagram; j++ {
		fmt.Fprintf(&payload, "%d 2001:db8:%x::%x %d\n", 1643068800+j, j, j+1, j%27)
	}

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := ingest.New(ingest.DefaultConfig(0))
	if err != nil {
		b.Fatal(err)
	}
	u := newUDPSource(telemetry.NewRegistry())
	var bad atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		ingestUDP(pipe, pc, newDatagramReader(pc), &bad, discardLogger(), u)
	}()
	sender, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.SetBytes(int64(payload.Len()) / linesPerDatagram)
	b.ResetTimer()
	sent := 0
	for sent < b.N {
		if _, err := sender.Write(payload.Bytes()); err != nil {
			b.Fatal(err)
		}
		sent += linesPerDatagram
		// Keep at most ~2000 events in flight: well under the default
		// receive buffer, so nothing is ever dropped.
		for sent-int(u.events.Value()) > 2000 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for u.events.Value() < uint64(sent) {
		if time.Now().After(deadline) {
			b.Fatalf("socket saw %d/%d events", u.events.Value(), sent)
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(u.events.Value())/secs, "events/sec")
	}
	sender.Close()
	pc.Close()
	<-done
	pipe.Close()
	if n := bad.Load(); n != 0 {
		b.Fatalf("%d malformed lines in a clean benchmark stream", n)
	}
}
