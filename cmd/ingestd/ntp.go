package main

import (
	"log/slog"
	"net"
	"net/netip"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/ingest"
	"hitlist6/internal/ntp"
	"hitlist6/internal/telemetry"
)

const (
	// ntpStratum and ntpRefID are what the source's replies say of its
	// clock: stratum 2, like the paper's pool servers, with reference ID
	// "GPS\0".
	ntpStratum = 2
	ntpRefID   = 0x47505300
	// ntpMaxRequest is the longest datagram answered: the 48-byte header
	// with room for extension fields and a MAC. Anything longer is no
	// client's time request.
	ntpMaxRequest = 512
)

// ntpSource is the NTP source's telemetry: requests answered per source
// family, replies sent, and datagrams that earned no reply, per reason.
type ntpSource struct {
	requests6, requests4  *telemetry.Counter
	replies, replyErrors  *telemetry.Counter
	short, oversize       *telemetry.Counter
	badVersion, notClient *telemetry.Counter
}

func newNTPSource(reg *telemetry.Registry) *ntpSource {
	const (
		requests = "ingest_ntp_requests_total"
		reqHelp  = "Client-mode NTP requests answered, by source family; only IPv6 sources are stored."
		rejected = "ingest_ntp_rejected_total"
		rejHelp  = "Datagrams on the NTP port that were not a client-mode request: no reply, nothing stored."
	)
	return &ntpSource{
		requests6:   reg.Counter(requests, reqHelp, telemetry.L("family", "ipv6")),
		requests4:   reg.Counter(requests, reqHelp, telemetry.L("family", "ipv4")),
		replies:     reg.Counter("ingest_ntp_replies_total", "NTP replies sent, counted before the write."),
		replyErrors: reg.Counter("ingest_ntp_reply_errors_total", "NTP replies whose write failed."),
		short:       reg.Counter(rejected, rejHelp, telemetry.L("reason", "short")),
		oversize:    reg.Counter(rejected, rejHelp, telemetry.L("reason", "oversize")),
		badVersion:  reg.Counter(rejected, rejHelp, telemetry.L("reason", "version")),
		notClient:   reg.Counter(rejected, rejHelp, telemetry.L("reason", "mode")),
	}
}

// startNTP makes conn the daemon's event source: ingestNTP answers its
// requests, stamped by now, until shutdown closes it.
func (d *daemon) startNTP(conn *net.UDPConn, now func() time.Time) {
	src := newNTPSource(d.reg)
	d.log.Info("answering NTP requests", "addr", conn.LocalAddr().String(), "stratum", ntpStratum)
	d.stopSource = func() { conn.Close() }
	d.sourceDone = make(chan struct{})
	go func() {
		defer close(d.sourceDone)
		ingestNTP(d.pipe, conn, now, d.log, src)
	}()
}

// ingestNTP is the paper's measurement primitive as an event source: it
// answers every client-mode request on conn as a stratum-2 server and
// adds each IPv6 source to the pipeline as a sighting at the request's
// arrival, with no server attribution. It reads one datagram at a time
// until the socket closes, flushing by readLoop's rule. now stamps the
// arrival and the reply.
func ingestNTP(pipe *ingest.Pipeline, conn *net.UDPConn, now func() time.Time, log *slog.Logger, s *ntpSource) {
	b := pipe.NewBatcher()
	buf := make([]byte, ntpMaxRequest+1)
	var out [ntp.PacketSize]byte
	err := readLoop(conn, b, func() (bool, error) {
		n, src, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return false, err
		}
		m, stored := s.handle(b, buf[:n], src.Addr(), now, out[:])
		if m > 0 {
			// Counted before the write: a client holding its reply never
			// reads a count without it.
			s.replies.Inc()
			if _, err := conn.WriteToUDPAddrPort(out[:m], src); err != nil {
				s.replyErrors.Inc()
			}
		}
		return stored, nil
	})
	log.Info("ntp source closed", "error", err)
}

// handle is the work on one datagram pkt from src after the read:
// decode it, and for a client-mode request serialize the reply into out
// (PacketSize bytes) and add an IPv6 source to b. It returns the reply's
// length, 0 for a datagram that earns none, and whether it added an
// event. IPv4 and v4-mapped sources are answered, not stored: the
// corpus is IPv6.
func (s *ntpSource) handle(b *ingest.Batcher, pkt []byte, src netip.Addr, now func() time.Time, out []byte) (int, bool) {
	recv := now()
	var req ntp.Packet
	switch {
	case len(pkt) > ntpMaxRequest:
		s.oversize.Inc()
		return 0, false
	case len(pkt) < ntp.PacketSize:
		s.short.Inc()
		return 0, false
	case req.DecodeFromBytes(pkt) != nil:
		s.badVersion.Inc()
		return 0, false
	case req.Mode != ntp.ModeClient:
		s.notClient.Inc()
		return 0, false
	}
	stored := !src.Is4() && !src.Is4In6()
	if stored {
		s.requests6.Inc()
		b.Add(ingest.Event{Addr: addr.Addr(src.As16()), Time: recv.Unix(), Server: -1})
	} else {
		s.requests4.Inc()
	}
	reply := ntp.NewServerReply(&req, recv, now(), ntpStratum, ntpRefID)
	n, _ := reply.SerializeTo(out) // cannot fail: out holds a packet, and the version decoded
	return n, stored
}
