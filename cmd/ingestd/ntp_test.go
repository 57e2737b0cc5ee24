package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/ntp"
	"hitlist6/internal/telemetry"
)

// listenNTP binds a UDP socket on network address a ("[::1]:0",
// "127.0.0.1:0"), skipping the test when the host cannot bind it.
func listenNTP(t testing.TB, a string) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort(a)))
	if err != nil {
		t.Skipf("cannot bind %s: %v", a, err)
	}
	return conn
}

// ntpHarness runs ingestNTP on a fresh socket into its own pipeline.
type ntpHarness struct {
	pipe *ingest.Pipeline
	reg  *telemetry.Registry
	src  *ntpSource
	conn *net.UDPConn
	done chan struct{}
}

func startNTPIngest(t testing.TB, listen string, now func() time.Time) *ntpHarness {
	t.Helper()
	conn := listenNTP(t, listen)
	reg := telemetry.NewRegistry()
	pipe, err := ingest.New(ingest.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := &ntpHarness{pipe: pipe, reg: reg, src: newNTPSource(reg), conn: conn, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		ingestNTP(pipe, conn, now, discardLogger(), h.src)
	}()
	return h
}

// stop closes the socket, waits for the loop to end and returns the
// pipeline's corpus.
func (h *ntpHarness) stop() *collector.Collector {
	h.conn.Close()
	<-h.done
	return h.pipe.Close()
}

// metric returns the value of one exposition line of the harness's
// registry, "" when the series is absent.
func (h *ntpHarness) metric(t testing.TB, series string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := h.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return metricValue(buf.String(), series)
}

func metricValue(exposition, series string) string {
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	return ""
}

// clientRequest is a client-mode request sent at ts.
func clientRequest(ts time.Time) ntp.Packet {
	return ntp.Packet{Version: 4, Mode: ntp.ModeClient, Poll: 6, TransmitTime: ntp.TimestampFromTime(ts)}
}

func encode(t testing.TB, p ntp.Packet) []byte {
	t.Helper()
	buf := make([]byte, ntp.PacketSize)
	if _, err := p.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// dialNTP connects a client socket to the source on conn.
func dialNTP(t testing.TB, conn *net.UDPConn) *net.UDPConn {
	t.Helper()
	c, err := net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// exchange sends req on c and returns the decoded reply.
func exchange(t testing.TB, c *net.UDPConn, req ntp.Packet) ntp.Packet {
	t.Helper()
	if _, err := c.Write(encode(t, req)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var in [ntpMaxRequest]byte
	n, err := c.Read(in[:])
	if err != nil {
		t.Fatalf("no reply: %v", err)
	}
	var reply ntp.Packet
	if err := reply.DecodeFromBytes(in[:n]); err != nil {
		t.Fatalf("reply does not decode: %v", err)
	}
	return reply
}

// checkReply requires the answer an RFC 5905 server owes req.
func checkReply(t testing.TB, req, reply ntp.Packet) {
	t.Helper()
	if reply.Mode != ntp.ModeServer || reply.Stratum != ntpStratum || reply.ReferenceID != ntpRefID {
		t.Fatalf("reply mode %v stratum %d refid %#x, want server, %d, %#x",
			reply.Mode, reply.Stratum, reply.ReferenceID, ntpStratum, uint32(ntpRefID))
	}
	if reply.OriginTime != req.TransmitTime {
		t.Fatalf("reply origin %#x, want the request's transmit %#x", reply.OriginTime, req.TransmitTime)
	}
}

// unixSeconds is the Unix second of an NTP timestamp.
func unixSeconds(ts ntp.Timestamp) int64 { return int64(ts>>32) - 2208988800 }

// TestNTPSourceToProbe follows one NTP packet from a client to /probe:
// the daemon answers it as a stratum-2 server, the client's source
// reaches the corpus without a second request, and after a checkpoint
// the tier answers for it.
func TestNTPSourceToProbe(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, dir)
	d.enableTier(dir, 1<<20)
	sock := listenNTP(t, "[::1]:0")
	d.startNTP(sock, time.Now)
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()

	c := dialNTP(t, sock)
	defer c.Close()
	req := clientRequest(time.Now())
	checkReply(t, req, exchange(t, c, req))

	loopback := addr.MustParse("::1")
	deadline := time.Now().Add(5 * time.Second)
	for {
		var held bool
		d.pipe.Store().View(func(c *collector.Collector) { _, held = c.Get(loopback) })
		if held {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("::1 never reached the corpus")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(srv.URL+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /snapshot: %s", resp.Status)
	}
	r := wantRecord(t, d, srv.URL, "::1")
	if r.Count != 1 || r.Servers != 0 {
		t.Errorf("/probe ::1: count %d servers %#x, want one unattributed sighting", r.Count, r.Servers)
	}
	_, _, metrics := get(t, srv.URL, "/metrics")
	for series, want := range map[string]string{
		`ingest_ntp_requests_total{family="ipv6"}`: "1",
		`ingest_ntp_requests_total{family="ipv4"}`: "0",
		`ingest_ntp_replies_total`:                 "1",
	} {
		if got := metricValue(metrics, series); got != want {
			t.Errorf("/metrics %s = %q, want %s", series, got, want)
		}
	}
	d.shutdown(nil)
	select {
	case <-d.sourceDone:
	default:
		t.Error("shutdown returned with the NTP source still running")
	}
}

// TestNTPSourceRejects: a short datagram, an oversize one, one of an
// unknown version and a server-mode packet each get no reply and store
// nothing, counted on /metrics under their own reason and no other. The
// valid request sent after each is the one the client hears back from.
func TestNTPSourceRejects(t *testing.T) {
	oversize := append(encode(t, clientRequest(time.Now())), make([]byte, ntpMaxRequest)...)
	badVersion := encode(t, clientRequest(time.Now()))
	badVersion[0] = 7<<3 | byte(ntp.ModeClient)
	server := encode(t, ntp.Packet{Version: 4, Mode: ntp.ModeServer, Stratum: 1})
	reasons := []string{"short", "oversize", "version", "mode"}
	for _, tc := range []struct {
		reason string
		pkt    []byte
	}{
		{"short", []byte("not ntp")},
		{"oversize", oversize},
		{"version", badVersion},
		{"mode", server},
	} {
		t.Run(tc.reason, func(t *testing.T) {
			h := startNTPIngest(t, "[::1]:0", time.Now)
			c := dialNTP(t, h.conn)
			defer c.Close()
			if _, err := c.Write(tc.pkt); err != nil {
				t.Fatal(err)
			}
			req := clientRequest(time.Now().Add(time.Second))
			checkReply(t, req, exchange(t, c, req))

			for _, reason := range reasons {
				want := "0"
				if reason == tc.reason {
					want = "1"
				}
				if got := h.metric(t, `ingest_ntp_rejected_total{reason="`+reason+`"}`); got != want {
					t.Errorf("rejected %s: %q, want %s", reason, got, want)
				}
			}
			if got := h.metric(t, "ingest_ntp_replies_total"); got != "1" {
				t.Errorf("replies: %q, want 1", got)
			}
			if obs := h.stop().TotalObservations(); obs != 1 {
				t.Errorf("corpus holds %d observations, want the valid request's 1", obs)
			}
		})
	}
}

// TestNTPSourceAnswersIPv4: an IPv4 client gets its time and is not
// stored; neither is a v4-mapped source, as a dual-stack socket
// reports one.
func TestNTPSourceAnswersIPv4(t *testing.T) {
	t.Run("ipv4", func(t *testing.T) {
		h := startNTPIngest(t, "127.0.0.1:0", time.Now)
		c := dialNTP(t, h.conn)
		req := clientRequest(time.Now())
		checkReply(t, req, exchange(t, c, req))
		c.Close()
		if got := h.metric(t, `ingest_ntp_requests_total{family="ipv4"}`); got != "1" {
			t.Errorf("ipv4 requests: %q, want 1", got)
		}
		if n := h.stop().NumAddrs(); n != 0 {
			t.Errorf("an IPv4 client left %d addresses in the corpus", n)
		}
	})

	t.Run("v4-mapped", func(t *testing.T) {
		pipe, err := ingest.New(ingest.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		b := pipe.NewBatcher()
		s := newNTPSource(telemetry.NewRegistry())
		var out [ntp.PacketSize]byte
		n, stored := s.handle(b, encode(t, clientRequest(time.Now())),
			netip.MustParseAddr("::ffff:192.0.2.1"), time.Now, out[:])
		b.Flush()
		if n != ntp.PacketSize || stored {
			t.Errorf("v4-mapped source: reply %d bytes, stored %v; want a reply, nothing stored", n, stored)
		}
		if v4, v6 := s.requests4.Value(), s.requests6.Value(); v4 != 1 || v6 != 0 {
			t.Errorf("v4-mapped source counted as %d ipv4, %d ipv6 requests; want 1, 0", v4, v6)
		}
		if obs := pipe.Close().TotalObservations(); obs != 0 {
			t.Errorf("a v4-mapped source left %d observations", obs)
		}
	})
}

// TestNTPSourceConcurrentClients: clients on many sockets at once all
// get their answers, and every request is counted and stored once.
func TestNTPSourceConcurrentClients(t *testing.T) {
	h := startNTPIngest(t, "[::1]:0", time.Now)
	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := net.DialUDP("udp", nil, h.conn.LocalAddr().(*net.UDPAddr))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			var in [ntpMaxRequest]byte
			for i := 0; i < perClient; i++ {
				req := clientRequest(time.Now())
				var out [ntp.PacketSize]byte
				if _, err := req.SerializeTo(out[:]); err != nil {
					errs <- err
					return
				}
				if _, err := c.Write(out[:]); err != nil {
					errs <- err
					return
				}
				if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
					errs <- err
					return
				}
				n, err := c.Read(in[:])
				if err != nil {
					errs <- err
					return
				}
				var reply ntp.Packet
				if err := reply.DecodeFromBytes(in[:n]); err != nil {
					errs <- err
					return
				}
				if reply.Stratum != ntpStratum || reply.OriginTime != req.TransmitTime {
					errs <- fmt.Errorf("reply stratum %d origin %#x for transmit %#x", reply.Stratum, reply.OriginTime, req.TransmitTime)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	const want = clients * perClient
	if got := h.src.requests6.Value(); got != want {
		t.Errorf("%d requests counted, want %d", got, want)
	}
	if got := h.src.replies.Value(); got != want {
		t.Errorf("%d replies counted, want %d", got, want)
	}
	if obs := h.stop().TotalObservations(); obs != want {
		t.Errorf("corpus holds %d observations, want %d", obs, want)
	}
}

// TestNTPSourceCountsReplyBeforeClientHasIt: a client holding reply i
// reads counters that already count it. Counting after the write loses
// this race rarely: on a 2-core box, 25 of 200 runs of this test caught
// that order, so CI runs it 200 times.
func TestNTPSourceCountsReplyBeforeClientHasIt(t *testing.T) {
	h := startNTPIngest(t, "[::1]:0", time.Now)
	defer h.stop()
	c := dialNTP(t, h.conn)
	defer c.Close()
	for i := uint64(1); i <= 2000; i++ {
		exchange(t, c, clientRequest(time.Now()))
		if reqs, replies := h.src.requests6.Value(), h.src.replies.Value(); reqs != i || replies != i {
			t.Fatalf("holding reply %d: %d requests, %d replies counted", i, reqs, replies)
		}
	}
}

// TestNTPSourceCloseFlushes: closing the socket ends the loop, and the
// sightings it held in a partial batch reach the pipeline first.
func TestNTPSourceCloseFlushes(t *testing.T) {
	h := startNTPIngest(t, "[::1]:0", time.Now)
	c := dialNTP(t, h.conn)
	for i := 0; i < 5; i++ {
		exchange(t, c, clientRequest(time.Now()))
	}
	c.Close()
	h.conn.Close()
	select {
	case <-h.done:
	case <-time.After(5 * time.Second):
		t.Fatal("closing the socket did not end the loop")
	}
	if obs := h.pipe.Close().TotalObservations(); obs != 5 {
		t.Errorf("%d observations after the loop ended, want 5", obs)
	}
}

// TestReadLoopFlushesOnExit pins the final flush both socket sources
// rely on: a read that adds an event and then an error that is not the
// deadline end the loop with the event handed to the pipeline, though
// no deadline ever fired to flush it.
func TestReadLoopFlushesOnExit(t *testing.T) {
	conn := listenNTP(t, "127.0.0.1:0")
	defer conn.Close()
	pipe, err := ingest.New(ingest.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := pipe.NewBatcher()
	reads := 0
	err = readLoop(conn, b, func() (bool, error) {
		if reads++; reads == 1 {
			b.Add(ingest.Event{Addr: addr.MustParse("2001:db8::1"), Time: 1643673600, Server: -1})
			return true, nil
		}
		return false, net.ErrClosed
	})
	if !errors.Is(err, net.ErrClosed) {
		t.Fatalf("readLoop returned %v, want the read's error", err)
	}
	if obs := pipe.Close().TotalObservations(); obs != 1 {
		t.Errorf("%d observations, want the one added before the error", obs)
	}
}

// TestNTPSourceMatchesEventLines: the same sightings through the NTP
// source and through ingestStream event lines make the same corpus.
// The clock steps one second per reading, so every request lands at
// its own second, which its reply's receive timestamp reports.
func TestNTPSourceMatchesEventLines(t *testing.T) {
	base := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	var ticks atomic.Int64
	clock := func() time.Time { return base.Add(time.Duration(ticks.Add(1)) * time.Second) }
	h := startNTPIngest(t, "[::1]:0", clock)
	c := dialNTP(t, h.conn)
	var lines bytes.Buffer
	for i := 0; i < 20; i++ {
		req := clientRequest(time.Now())
		reply := exchange(t, c, req)
		checkReply(t, req, reply)
		fmt.Fprintf(&lines, "%d ::1\n", unixSeconds(reply.ReceiveTime))
	}
	c.Close()
	viaNTP := h.stop()

	pipe, err := ingest.New(ingest.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var bad atomic.Uint64
	if err := ingestStream(pipe, &lines, &bad); err != nil || bad.Load() != 0 {
		t.Fatalf("ingestStream: %v, %d malformed", err, bad.Load())
	}
	viaLines := pipe.Close()
	if viaNTP.TotalObservations() != 20 || viaNTP.Checksum() != viaLines.Checksum() {
		t.Errorf("NTP source: %d observations, checksum %x; event lines: %d, %x",
			viaNTP.TotalObservations(), viaNTP.Checksum(), viaLines.TotalObservations(), viaLines.Checksum())
	}
}

// TestNTPHandleZeroAlloc is the deterministic gate on the per-request
// work after the read — decode, reply, serialize, observe: in steady
// state it allocates nothing, for a request or a reject.
func TestNTPHandleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	pipe, err := ingest.New(ingest.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	s := newNTPSource(telemetry.NewRegistry())
	b := pipe.NewBatcher()
	req := encode(t, clientRequest(time.Now()))
	server := encode(t, ntp.Packet{Version: 4, Mode: ntp.ModeServer})
	src := netip.MustParseAddr("2001:db8::1")
	var out [ntp.PacketSize]byte
	for i := 0; i < 1000; i++ { // warm: the address indexed, the batch freelist primed
		s.handle(b, req, src, time.Now, out[:])
	}
	b.Flush()
	pipe.Quiesce()
	if avg := testing.AllocsPerRun(500, func() {
		if n, stored := s.handle(b, req, src, time.Now, out[:]); n != ntp.PacketSize || !stored {
			t.Fatal("request not answered and stored")
		}
	}); avg != 0 {
		t.Errorf("handle, client request: %.2f allocs/request, want 0", avg)
	}
	if avg := testing.AllocsPerRun(500, func() {
		if n, _ := s.handle(b, server, src, time.Now, out[:]); n != 0 {
			t.Fatal("server-mode packet answered")
		}
	}); avg != 0 {
		t.Errorf("handle, server-mode packet: %.2f allocs/packet, want 0", avg)
	}
}
