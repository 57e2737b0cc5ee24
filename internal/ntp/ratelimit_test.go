package ntp

import (
	"net/netip"
	"strings"
	"testing"
	"time"
)

var (
	src1 = netip.MustParseAddr("2001:db8::1")
	src2 = netip.MustParseAddr("2001:db8::2")
)

func TestRateLimiterAllowsSpacedQueries(t *testing.T) {
	rl := NewRateLimiter(time.Second, 10)
	t0 := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	if !rl.Allow(src1, t0) {
		t.Fatal("first query denied")
	}
	if !rl.Allow(src1, t0.Add(2*time.Second)) {
		t.Fatal("spaced query denied")
	}
	// Distinct sources do not interfere.
	if !rl.Allow(src2, t0.Add(2*time.Second)) {
		t.Fatal("second source denied")
	}
}

func TestRateLimiterDeniesBursts(t *testing.T) {
	rl := NewRateLimiter(time.Second, 10)
	t0 := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	rl.Allow(src1, t0)
	if rl.Allow(src1, t0.Add(100*time.Millisecond)) {
		t.Fatal("burst allowed")
	}
	// Offenders reset their window: still denied one second after the
	// *denied* attempt.
	if rl.Allow(src1, t0.Add(1050*time.Millisecond)) {
		t.Fatal("window did not reset on violation")
	}
	// After a clean interval the source recovers.
	if !rl.Allow(src1, t0.Add(3*time.Second)) {
		t.Fatal("recovered source denied")
	}
}

func TestRateLimiterZeroIntervalDisables(t *testing.T) {
	rl := NewRateLimiter(0, 10)
	t0 := time.Now()
	for i := 0; i < 100; i++ {
		if !rl.Allow(src1, t0) {
			t.Fatal("disabled limiter denied")
		}
	}
}

func TestRateLimiterCapacityEviction(t *testing.T) {
	rl := NewRateLimiter(time.Second, 4)
	t0 := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		src := netip.AddrFrom16([16]byte{0x20, 0x01, 15: byte(i)})
		rl.Allow(src, t0.Add(time.Duration(i)*time.Minute))
	}
	if got := rl.Tracked(); got > 4 {
		t.Errorf("tracked %d sources, capacity 4", got)
	}
}

func TestKissOfDeathPacket(t *testing.T) {
	req := NewClientRequest(time.Now())
	kod := NewKissOfDeath(&req)
	if kod.Stratum != 0 || kod.Mode != ModeServer {
		t.Errorf("kod shape: %+v", kod)
	}
	if kod.OriginTime != req.TransmitTime {
		t.Error("kod must echo origin")
	}
	code, ok := IsKissOfDeath(&kod)
	if !ok || code != "RATE" {
		t.Errorf("IsKissOfDeath: %q %v", code, ok)
	}
	normal := NewServerReply(&req, time.Now(), time.Now(), 2, 1)
	if _, ok := IsKissOfDeath(&normal); ok {
		t.Error("normal reply misdetected as KoD")
	}
}

// TestServerRateLimitEndToEnd exercises the limiter over real sockets:
// the second immediate query must come back as a RATE kiss-o'-death.
func TestServerRateLimitEndToEnd(t *testing.T) {
	srv := newLoopbackServer(t, ServerConfig{
		Stratum:   2,
		RateLimit: NewRateLimiter(500*time.Millisecond, 100),
	})
	defer srv.Close()

	if _, err := Query(srv.LocalAddr().String(), 2*time.Second); err != nil {
		t.Fatalf("first query: %v", err)
	}
	// Immediate second query: the client must see the KoD rejection
	// (Query reports it as an invalid-stratum error).
	_, err := Query(srv.LocalAddr().String(), 2*time.Second)
	if err == nil {
		t.Fatal("burst query succeeded past the limiter")
	}
	if !strings.Contains(err.Error(), "kiss") {
		t.Fatalf("unexpected error: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.KissOfDeaths() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.KissOfDeaths() != 1 {
		t.Errorf("KoD counter: %d", srv.KissOfDeaths())
	}
	// After the interval, service resumes.
	time.Sleep(600 * time.Millisecond)
	if _, err := Query(srv.LocalAddr().String(), 2*time.Second); err != nil {
		t.Fatalf("post-interval query: %v", err)
	}
}

// Tracked returns the number of sources currently tracked.
func (rl *RateLimiter) Tracked() int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return len(rl.last)
}

// IsKissOfDeath reports whether a response is a kiss-o'-death and, if
// so, its code (e.g. "RATE").
func IsKissOfDeath(p *Packet) (code string, ok bool) {
	if p.Stratum != 0 || p.Mode != ModeServer {
		return "", false
	}
	b := []byte{
		byte(p.ReferenceID >> 24), byte(p.ReferenceID >> 16),
		byte(p.ReferenceID >> 8), byte(p.ReferenceID),
	}
	return string(b), true
}

// KissOfDeaths returns how many rate-limit KoD responses were sent.
func (s *Server) KissOfDeaths() uint64 { return s.kods.Load() }
