package ntp

import (
	"errors"
	"log"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// SourceObserver receives the source address and arrival time of every
// valid client request a server handles. This is the paper's measurement
// primitive: the passive collector is just a SourceObserver.
type SourceObserver func(src netip.Addr, at time.Time)

// ServerConfig configures a Server.
type ServerConfig struct {
	// Addr is the UDP listen address, e.g. "[::1]:0".
	Addr string
	// Stratum reported in replies; the paper's servers were stratum 2.
	Stratum uint8
	// ReferenceID is the 32-bit refid (for stratum >= 2, conventionally
	// derived from the upstream server).
	ReferenceID uint32
	// Observer, if non-nil, is invoked for every valid request.
	Observer SourceObserver
	// RateLimit, if non-nil, enforces per-source query pacing; offenders
	// receive a kiss-o'-death (RATE) instead of time.
	RateLimit *RateLimiter
	// Now supplies time; nil means time.Now. Injected for tests.
	Now func() time.Time
	// Logf, if non-nil, receives malformed-packet diagnostics.
	Logf func(format string, args ...any)
}

// Server is a stratum-2 NTP/UDP server. It answers client-mode requests
// and ignores everything else, like a pool server should.
type Server struct {
	cfg  ServerConfig
	conn *net.UDPConn

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup

	// Stats counters, updated atomically.
	requests atomic.Uint64
	replies  atomic.Uint64
	dropped  atomic.Uint64
	kods     atomic.Uint64
}

// NewServer binds the UDP socket and starts serving.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "[::1]:0"
	}
	if cfg.Stratum == 0 {
		cfg.Stratum = 2
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	uaddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, conn: conn}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// LocalAddr returns the bound UDP address.
func (s *Server) LocalAddr() *net.UDPAddr {
	return s.conn.LocalAddr().(*net.UDPAddr)
}

// Stats returns the request/reply/drop counters.
func (s *Server) Stats() (requests, replies, dropped uint64) {
	return s.requests.Load(), s.replies.Load(), s.dropped.Load()
}

// Close stops the server and waits for the serve loop to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

func (s *Server) serve() {
	defer s.wg.Done()
	buf := make([]byte, 512)
	out := make([]byte, PacketSize)
	var req Packet
	for {
		n, raddr, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.logf("ntp: read: %v", err)
			continue
		}
		recvAt := s.cfg.Now()
		if err := req.DecodeFromBytes(buf[:n]); err != nil {
			s.dropped.Add(1)
			continue
		}
		if req.Mode != ModeClient {
			s.dropped.Add(1)
			continue
		}
		s.requests.Add(1)
		if s.cfg.Observer != nil {
			s.cfg.Observer(raddr.Addr(), recvAt)
		}
		if s.cfg.RateLimit != nil && !s.cfg.RateLimit.Allow(raddr.Addr(), recvAt) {
			kod := NewKissOfDeath(&req)
			if nn, err := kod.SerializeTo(out); err == nil {
				s.send(&s.kods, out[:nn], raddr)
			}
			continue
		}
		reply := NewServerReply(&req, recvAt, s.cfg.Now(), s.cfg.Stratum, s.cfg.ReferenceID)
		nn, err := reply.SerializeTo(out)
		if err != nil {
			s.logf("ntp: serialize: %v", err)
			continue
		}
		if err := s.send(&s.replies, out[:nn], raddr); err != nil {
			s.logf("ntp: write: %v", err)
		}
	}
}

// send writes one response and counts it. The count moves before the
// write and back if the write fails: a client holding its answer must
// never read Stats that do not include it.
func (s *Server) send(sent *atomic.Uint64, pkt []byte, to netip.AddrPort) error {
	sent.Add(1)
	_, err := s.conn.WriteToUDPAddrPort(pkt, to)
	if err != nil {
		sent.Add(^uint64(0))
	}
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}
