package main

import (
	"fmt"
	"net"
	"strconv"
	"time"
)

const (
	// sendBurst is how many datagrams go out between two looks at the
	// kernel queue. With the queue limit at half the receive buffer, a
	// burst this size cannot overflow the other half.
	sendBurst = 16
	// sendBackoff is how long the sender sleeps when the queue is over
	// the limit. The limit holds about a millisecond of daemon work, so
	// the daemon never runs dry while the sender naps.
	sendBackoff = 50 * time.Microsecond
)

// sender is the lossless closed-loop UDP load generator: it watches
// the daemon socket's receive queue in /proc/net/udp and sends a burst
// only while the queue is under limit bytes. It is deliberately not
// open loop: on a two-core box an open-loop sender's catch-up bursts
// overflow the receive buffer whenever it is descheduled (see
// bench/README.md for the loss measurements).
type sender struct {
	conn  net.Conn
	queue *udpQueue
	limit int

	// Totals since newSender.
	datagrams int
	polls     int
	waited    time.Duration // time spent sleeping on a full queue
	sending   time.Duration // wall time inside send
	rxqHigh   int           // highest receive-queue reading, bytes
	drops     int           // kernel drop counter of the socket, latest reading
}

func newSender(udpPort int) (*sender, error) {
	rmem, err := rmemDefault()
	if err != nil {
		return nil, err
	}
	q, err := openUDPQueue(udpPort)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("udp4", "127.0.0.1:"+strconv.Itoa(udpPort))
	if err != nil {
		q.Close()
		return nil, err
	}
	return &sender{conn: conn, queue: q, limit: rmem / 2}, nil
}

func (s *sender) Close() {
	s.conn.Close()
	s.queue.Close()
}

// send delivers the datagrams in order and returns when the last one
// has been handed to the kernel.
func (s *sender) send(datagrams [][]byte) error {
	start := time.Now()
	defer func() { s.sending += time.Since(start) }()
	for i := 0; i < len(datagrams); {
		rxq, err := s.poll()
		if err != nil {
			return err
		}
		if rxq > s.limit {
			t := time.Now()
			time.Sleep(sendBackoff)
			s.waited += time.Since(t)
			continue
		}
		for end := min(i+sendBurst, len(datagrams)); i < end; i++ {
			if _, err := s.conn.Write(datagrams[i]); err != nil {
				return fmt.Errorf("udp send: %w", err)
			}
			s.datagrams++
		}
	}
	_, err := s.poll()
	return err
}

// poll reads the socket's line of /proc/net/udp, keeping the high-water
// mark and the latest drop count.
func (s *sender) poll() (rxq int, err error) {
	rxq, drops, err := s.queue.read()
	if err != nil {
		return 0, err
	}
	s.polls++
	s.rxqHigh = max(s.rxqHigh, rxq)
	s.drops = drops
	return rxq, nil
}

// waitShare is the share of send time spent waiting for queue room.
// Near zero means the generator, not the daemon, set the pace.
func (s *sender) waitShare() float64 {
	if s.sending == 0 {
		return 0
	}
	return float64(s.waited) / float64(s.sending)
}
