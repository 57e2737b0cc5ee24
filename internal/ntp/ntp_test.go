package ntp

import (
	"net/netip"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestTimestampRoundTrip(t *testing.T) {
	times := []time.Time{
		time.Date(2022, 1, 25, 0, 0, 0, 0, time.UTC),
		time.Date(2022, 8, 31, 23, 59, 59, 999_000_000, time.UTC),
		time.Unix(0, 0).UTC(),
		time.Date(2036, 2, 7, 6, 28, 15, 0, time.UTC), // near NTP era end
	}
	for _, in := range times {
		out := TimestampFromTime(in).Time()
		if d := out.Sub(in); d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("round trip %v -> %v (delta %v)", in, out, d)
		}
	}
}

func TestTimestampZero(t *testing.T) {
	if ts := TimestampFromTime(time.Time{}); ts != 0 {
		t.Errorf("zero time: got %d", ts)
	}
	if !Timestamp(0).Time().IsZero() {
		t.Error("zero timestamp should map to zero time")
	}
}

func TestShortRoundTrip(t *testing.T) {
	cases := []time.Duration{0, time.Millisecond, time.Second, 2500 * time.Millisecond, time.Minute}
	for _, d := range cases {
		got := ShortFromDuration(d).Duration()
		if diff := got - d; diff < -time.Millisecond || diff > time.Millisecond {
			t.Errorf("short round trip %v -> %v", d, got)
		}
	}
	if ShortFromDuration(-time.Second) != 0 {
		t.Error("negative duration should clamp to 0")
	}
	if ShortFromDuration(100000*time.Second) != Short(0xffffffff) {
		t.Error("huge duration should saturate")
	}
}

func TestPacketSerializeDecodeRoundTrip(t *testing.T) {
	f := func(leap, mode uint8, stratum uint8, poll, prec int8,
		delay, disp, refid uint32, rt, ot, rcv, xmt uint64) bool {
		in := Packet{
			Leap: LeapIndicator(leap % 4), Version: 4, Mode: Mode(mode % 8),
			Stratum: stratum, Poll: poll, Precision: prec,
			RootDelay: Short(delay), RootDispersion: Short(disp),
			ReferenceID: refid, ReferenceTime: Timestamp(rt),
			OriginTime: Timestamp(ot), ReceiveTime: Timestamp(rcv),
			TransmitTime: Timestamp(xmt),
		}
		var buf [PacketSize]byte
		if _, err := in.SerializeTo(buf[:]); err != nil {
			return false
		}
		var out Packet
		if err := out.DecodeFromBytes(buf[:]); err != nil {
			return false
		}
		return out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	var p Packet
	if err := p.DecodeFromBytes(make([]byte, 10)); err == nil {
		t.Error("short packet should fail")
	}
	// Version 0 is invalid.
	raw := make([]byte, PacketSize)
	raw[0] = 0x03 // LI=0, VN=0, Mode=3
	if err := p.DecodeFromBytes(raw); err == nil {
		t.Error("version 0 should fail")
	}
	// Version 7 is invalid.
	raw[0] = 7<<3 | 3
	if err := p.DecodeFromBytes(raw); err == nil {
		t.Error("version 7 should fail")
	}
}

func TestSerializeErrors(t *testing.T) {
	p := Packet{Version: 4, Mode: ModeClient}
	if _, err := p.SerializeTo(make([]byte, 10)); err == nil {
		t.Error("small buffer should fail")
	}
	p.Version = 9
	if _, err := p.SerializeTo(make([]byte, PacketSize)); err == nil {
		t.Error("bad version should fail")
	}
}

func TestServerReplySemantics(t *testing.T) {
	reqTime := time.Date(2022, 3, 1, 12, 0, 0, 0, time.UTC)
	req := NewClientRequest(reqTime)
	recvAt := reqTime.Add(30 * time.Millisecond)
	sendAt := recvAt.Add(time.Millisecond)
	reply := NewServerReply(&req, recvAt, sendAt, 2, 0x42424242)
	if reply.Mode != ModeServer {
		t.Errorf("mode: got %v", reply.Mode)
	}
	if reply.Stratum != 2 {
		t.Errorf("stratum: got %d", reply.Stratum)
	}
	if reply.OriginTime != req.TransmitTime {
		t.Error("origin must echo client transmit")
	}
	if got := reply.ReceiveTime.Time(); !within(got, recvAt, time.Microsecond) {
		t.Errorf("receive time: got %v want %v", got, recvAt)
	}
}

func TestOffsetAndDelay(t *testing.T) {
	// Client 100ms behind server, symmetric 20ms one-way delay.
	base := time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)
	t1 := base
	t2 := base.Add(100*time.Millisecond + 20*time.Millisecond)
	t3 := t2.Add(time.Millisecond)
	t4 := t1.Add(41 * time.Millisecond)
	offset, delay := OffsetAndDelay(t1, t2, t3, t4)
	if offset < 99*time.Millisecond || offset > 101*time.Millisecond {
		t.Errorf("offset: got %v want ~100ms", offset)
	}
	if delay < 39*time.Millisecond || delay > 41*time.Millisecond {
		t.Errorf("delay: got %v want ~40ms", delay)
	}
}

func TestModeString(t *testing.T) {
	for m := Mode(0); m < 8; m++ {
		if m.String() == "" {
			t.Errorf("mode %d unnamed", m)
		}
	}
}

// newLoopbackServer binds a test server on ::1, falling back to 127.0.0.1
// when the host lacks IPv6 loopback (the protocol is family-agnostic).
func newLoopbackServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	cfg.Addr = "[::1]:0"
	srv, err := NewServer(cfg)
	if err != nil {
		cfg.Addr = "127.0.0.1:0"
		srv, err = NewServer(cfg)
	}
	if err != nil {
		t.Skipf("cannot bind loopback UDP socket: %v", err)
	}
	return srv
}

// TestServerClientLoopback runs a real UDP exchange over loopback,
// exercising the same code path the paper's vantage points ran.
func TestServerClientLoopback(t *testing.T) {
	var mu sync.Mutex
	var observed []netip.Addr
	srv := newLoopbackServer(t, ServerConfig{
		Stratum:     2,
		ReferenceID: 0x7f000001,
		Observer: func(src netip.Addr, at time.Time) {
			mu.Lock()
			observed = append(observed, src)
			mu.Unlock()
		},
	})
	defer srv.Close()

	res, err := Query(srv.LocalAddr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Stratum != 2 {
		t.Errorf("stratum: got %d", res.Stratum)
	}
	if res.Delay < 0 || res.Delay > time.Second {
		t.Errorf("implausible loopback delay %v", res.Delay)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(observed) != 1 {
		t.Fatalf("observer saw %d sources, want 1", len(observed))
	}
	if !observed[0].IsLoopback() {
		t.Errorf("observed source %v is not loopback", observed[0])
	}
	reqs, replies, _ := srv.Stats()
	if reqs != 1 || replies != 1 {
		t.Errorf("stats: %d requests / %d replies", reqs, replies)
	}
}

// TestServerCountsReplyBeforeClientHasIt: a client that holds reply i
// reads Stats that already count it. Counting after the write lost this
// race about once in forty queries; five hundred in a row make the old
// order fail every run.
func TestServerCountsReplyBeforeClientHasIt(t *testing.T) {
	srv := newLoopbackServer(t, ServerConfig{})
	defer srv.Close()
	target := srv.LocalAddr().String()
	for i := uint64(1); i <= 500; i++ {
		if _, err := Query(target, 2*time.Second); err != nil {
			t.Fatalf("Query %d: %v", i, err)
		}
		if reqs, replies, _ := srv.Stats(); reqs != i || replies != i {
			t.Fatalf("after reply %d: stats say %d requests / %d replies", i, reqs, replies)
		}
	}
}

func TestServerIgnoresNonClientPackets(t *testing.T) {
	srv := newLoopbackServer(t, ServerConfig{})
	defer srv.Close()

	// A server-mode packet must be dropped silently.
	p := Packet{Version: 4, Mode: ModeServer, Stratum: 1}
	var buf [PacketSize]byte
	if _, err := p.SerializeTo(buf[:]); err != nil {
		t.Fatal(err)
	}
	conn, err := netDialUDP(srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(buf[:]); err != nil {
		t.Fatal(err)
	}
	// Also garbage.
	if _, err := conn.Write([]byte("not ntp")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		_, _, dropped := srv.Stats()
		if dropped >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, _, dropped := srv.Stats(); dropped < 2 {
		t.Errorf("dropped: got %d want >= 2", dropped)
	}
	if reqs, _, _ := srv.Stats(); reqs != 0 {
		t.Errorf("requests: got %d want 0", reqs)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := newLoopbackServer(t, ServerConfig{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func within(a, b time.Time, eps time.Duration) bool {
	d := a.Sub(b)
	return d >= -eps && d <= eps
}

// Duration converts NTP short format to a duration.
func (s Short) Duration() time.Duration {
	secs := time.Duration(s>>16) * time.Second
	frac := time.Duration(uint64(s&0xffff) * uint64(time.Second) >> 16)
	return secs + frac
}
