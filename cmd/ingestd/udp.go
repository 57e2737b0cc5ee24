package main

import (
	"errors"
	"log/slog"
	"net"
	"sync/atomic"
	"time"

	"hitlist6/internal/ingest"
	"hitlist6/internal/telemetry"
)

const (
	// udpReadBatch is how many datagrams one readBatch call may return —
	// the recvmmsg vector length on Linux. 32 keeps the buffer ring at
	// 2 MiB while cutting per-datagram syscall overhead ~30x at
	// saturation.
	udpReadBatch = 32
	// udpBufSize accepts any UDP payload (64 KiB covers the maximum).
	udpBufSize = 1 << 16
	// udpFlushEvery bounds how long parsed events may sit in the
	// producer's partial batch before the live view sees them. Under
	// load, batches flush themselves at BatchSize and this only trims
	// the tail; when traffic trickles, the read deadline fires at this
	// cadence and flushes whatever arrived.
	udpFlushEvery = 50 * time.Millisecond
	// udpIdleFlush is how long the socket may stay empty before a pending
	// partial batch is flushed without waiting for the cadence: the end
	// of a burst reaches the worker at once. A socket with
	// datagrams queued never waits this long, so never flushes early.
	udpIdleFlush = time.Millisecond
)

// datagramReader is the socket-facing half of the UDP source: one
// blocking call that surfaces one or more datagrams from a reused
// buffer ring. Two implementations exist — the portable single-recvfrom
// reader below, and the Linux recvmmsg reader in udp_linux.go that
// drains up to udpReadBatch datagrams per syscall. Both honor the
// connection's read deadline, which is what the adaptive flush rides
// on. TestUDPReaderEquivalence holds the two to identical results.
type datagramReader interface {
	// readBatch blocks until at least one datagram, an error, or the
	// read deadline; it returns how many datagrams arrived.
	readBatch() (int, error)
	// datagram returns the i-th payload of the last readBatch, valid
	// until the next call.
	datagram(i int) []byte
	// batched reports whether the reader can return more than one
	// datagram per syscall.
	batched() bool
}

// newDatagramReader picks the best reader for this platform and socket:
// recvmmsg when the build and the connection support it, one-at-a-time
// reads otherwise.
func newDatagramReader(conn net.PacketConn) datagramReader {
	if r, ok := newPlatformBatchReader(conn, udpReadBatch, udpBufSize); ok {
		return r
	}
	return newSingleReader(conn, udpBufSize)
}

// singleReader is the portable datagramReader: one ReadFrom per call.
type singleReader struct {
	conn net.PacketConn
	buf  []byte
	n    int
}

func newSingleReader(conn net.PacketConn, bufSize int) *singleReader {
	return &singleReader{conn: conn, buf: make([]byte, bufSize)}
}

func (r *singleReader) readBatch() (int, error) {
	n, _, err := r.conn.ReadFrom(r.buf)
	if err != nil {
		return 0, err
	}
	r.n = n
	return 1, nil
}

func (r *singleReader) datagram(i int) []byte {
	if i != 0 {
		panic("singleReader holds one datagram")
	}
	return r.buf[:r.n]
}

func (r *singleReader) batched() bool { return false }

// udpSource is the socket-level instrumentation of the UDP ingest path:
// datagram and parsed-event counters, the per-read batch-size
// distribution (how much recvmmsg is actually amortizing), and a
// recent-rate window over events seen at the socket — the wire-side
// twin of the pipeline's processed-events rate, so a gap between the
// two points at queueing, not parsing.
type udpSource struct {
	datagrams *telemetry.Counter
	events    *telemetry.Counter
	batchSize *telemetry.Histogram
	recent    telemetry.RateWindow
}

func newUDPSource(reg *telemetry.Registry) *udpSource {
	u := &udpSource{
		datagrams: reg.Counter("ingest_udp_datagrams_total",
			"UDP event datagrams received."),
		events: reg.Counter("ingest_udp_events_total",
			"Events parsed from UDP datagrams at the socket."),
		batchSize: reg.Histogram("ingest_udp_batch_events",
			"Datagrams received per batched socket read.",
			telemetry.CountBuckets()),
	}
	reg.GaugeFunc("ingest_udp_recent_events_per_sec",
		"Socket-level event arrival rate over the trailing window.",
		u.recentEventsPerSec)
	return u
}

// recentEventsPerSec samples the event counter into the rate window and
// returns the trailing-window arrival rate. Poll-driven: every scrape
// of /metrics or /stats contributes a sample.
func (u *udpSource) recentEventsPerSec() float64 {
	rate, ok := u.recent.Tick(time.Now(), u.events.Value())
	if !ok {
		return 0
	}
	return rate
}

// udpStatsReply is the "udp" block of /stats.
type udpStatsReply struct {
	Datagrams          uint64  `json:"datagrams"`
	Events             uint64  `json:"events"`
	RecentEventsPerSec float64 `json:"recent_events_per_sec"`
}

// statsReply renders the source for /stats; nil (daemon not ingesting
// from a socket) renders as an absent block.
func (u *udpSource) statsReply() *udpStatsReply {
	if u == nil {
		return nil
	}
	return &udpStatsReply{
		Datagrams:          u.datagrams.Value(),
		Events:             u.events.Value(),
		RecentEventsPerSec: u.recentEventsPerSec(),
	}
}

// ingestUDP feeds datagrams into the pipeline until the socket closes
// (a read error — the shutdown path closes the socket to get here).
// Reads are batched (r decides how hard); readLoop flushes.
func ingestUDP(pipe *ingest.Pipeline, conn net.PacketConn, r datagramReader,
	badLines *atomic.Uint64, log *slog.Logger, u *udpSource) {
	b := pipe.NewBatcher()
	err := readLoop(conn, b, func() (bool, error) {
		n, err := r.readBatch()
		if err != nil {
			return false, err
		}
		added := 0
		for i := 0; i < n; i++ {
			added += ingestDatagram(b, r.datagram(i), badLines)
		}
		u.datagrams.Add(uint64(n))
		u.batchSize.Observe(float64(n))
		if added > 0 {
			u.events.Add(uint64(added))
		}
		return added > 0, nil
	})
	log.Info("udp source closed", "error", err)
}

// readLoop is the socket sources' read loop and flush rule. It calls
// read, which reads the socket once and adds what arrived to b,
// reporting whether it added anything, until read fails with anything
// but the read deadline. Full batches flush themselves; the deadline
// pushes the partial tail — udpFlushEvery after the last flush while
// datagrams keep coming, udpIdleFlush after the socket runs dry — so
// the live view lags the wire by at most one flush interval under load
// and by a millisecond at the end of a burst. The final flush makes the
// last partial batch durable before sourceDone releases the shutdown
// sequence to checkpoint. The deadlines run on the wall clock whatever
// clock stamps the events.
func readLoop(conn net.PacketConn, b *ingest.Batcher, read func() (added bool, err error)) error {
	defer b.Flush()
	now := time.Now()
	lastFlush := now
	dirty := false
	for {
		deadline := lastFlush.Add(udpFlushEvery)
		if idle := now.Add(udpIdleFlush); dirty && idle.Before(deadline) {
			deadline = idle
		}
		if err := conn.SetReadDeadline(deadline); err != nil {
			return err
		}
		added, err := read()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if dirty {
					b.Flush()
					dirty = false
				}
				now = time.Now()
				lastFlush = now
				continue
			}
			return err
		}
		dirty = dirty || added
		if now = time.Now(); now.Sub(lastFlush) >= udpFlushEvery {
			if dirty {
				b.Flush()
				dirty = false
			}
			lastFlush = now
		}
	}
}
