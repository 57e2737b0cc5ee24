package main

import (
	"fmt"

	"hitlist6/internal/addr"
	"hitlist6/internal/ingest"
	"hitlist6/internal/workload"
)

// linesPerDatagram is how many event lines one UDP payload carries
// (≈1.1 kB, under the loopback MTU so no datagram fragments).
const linesPerDatagram = 25

// wire is an event stream encoded as the datagrams the daemon receives.
type wire struct {
	events    []ingest.Event
	datagrams [][]byte
	bytes     int
}

func encodeWire(events []ingest.Event) *wire {
	w := &wire{events: events}
	var buf []byte
	for i := 0; i < len(events); i += linesPerDatagram {
		start := len(buf)
		for _, ev := range events[i:min(i+linesPerDatagram, len(events))] {
			buf = ev.AppendText(buf)
		}
		w.datagrams = append(w.datagrams, buf[start:len(buf):len(buf)])
	}
	w.bytes = len(buf)
	return w
}

// eventsIn is how many events the first n datagrams carry.
func (w *wire) eventsIn(n int) int {
	return min(n*linesPerDatagram, len(w.events))
}

// paperStream generates the one input every workload shares: the
// paper-shaped, corpus-growing stream of the workload package, a pure
// function of (seed, scale).
func paperStream(seed int64, scale float64) (*workload.Stream, error) {
	p, ok := workload.Lookup("paper")
	if !ok {
		return nil, fmt.Errorf("workload profile %q missing", "paper")
	}
	return p.Stream(seed, workload.Size{Scale: scale, Days: studyDays})
}

// resight returns the stream shifted one window later and rotated
// across vantages (as the workload package's cold-replay profile does):
// every event re-sights an address the original stream introduced.
func resight(st *workload.Stream) []ingest.Event {
	shift := st.End.Unix() - st.Origin.Unix()
	out := make([]ingest.Event, len(st.Events))
	for i, ev := range st.Events {
		ev.Time += shift
		ev.Server = int32((int(ev.Server) + 13) % workload.NumVantages)
		out[i] = ev
	}
	return out
}

// record is what the corpus must hold for one address; it mirrors the
// /probe reply.
type record struct {
	first, last int64
	count       uint32
	servers     uint32
}

// reference is the benchmark's own replay of exactly the events sent,
// independent of the collector under test: plain maps, no shared code.
// /stats and /probe answers are checked against it.
type reference struct {
	addrs        map[addr.Addr]record
	iids         map[uint64]struct{}
	observations uint64
}

func newReference(sizeHint int) *reference {
	return &reference{
		addrs: make(map[addr.Addr]record, sizeHint),
		iids:  make(map[uint64]struct{}, sizeHint),
	}
}

func (r *reference) observe(events []ingest.Event) {
	for _, ev := range events {
		rec, seen := r.addrs[ev.Addr]
		if !seen {
			rec.first, rec.last = ev.Time, ev.Time
			r.iids[ev.Addr.Lo()] = struct{}{}
		}
		rec.first = min(rec.first, ev.Time)
		rec.last = max(rec.last, ev.Time)
		rec.count++
		if ev.Server >= 0 {
			rec.servers |= 1 << uint(ev.Server)
		}
		r.addrs[ev.Addr] = rec
	}
	r.observations += uint64(len(events))
}

// absentAddr derives an address the stream never contains from one it
// does, by flipping interface-identifier bits until the reference has
// no such key.
func (r *reference) absentAddr(a addr.Addr, salt uint64) addr.Addr {
	for {
		salt = salt*6364136223846793005 + 1442695040888963407
		b := addr.FromParts(a.Hi(), a.Lo()^salt|1)
		if _, ok := r.addrs[b]; !ok {
			return b
		}
	}
}
