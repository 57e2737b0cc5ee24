package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call into a layer, or a phase of a
// black-box run. Spans of one repeat share a trace_id; parent is the id
// of the enclosing span (0 for a root). Times are nanoseconds since the
// tracer's epoch; count is how many items the span processed.
type span struct {
	ID      int    `json:"id"`
	TraceID int    `json:"trace_id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Count   int64  `json:"count"`
	// CPUNS is the process CPU time the span consumed, where the
	// recorder measured it (the in-process layer replay does).
	CPUNS int64 `json:"cpu_ns,omitempty"`
	// SelfNS is the span's duration minus what its children cover;
	// filled in when the spans are written out.
	SelfNS int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs stay untraced.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// tracerFor returns the tracer for the i-th repeat or cycle of a traced
// run — every other one, so that the untraced ones beside them give the
// tracing overhead — and nil otherwise.
func (b *bench) tracerFor(i int) *tracer {
	if i%2 == 1 {
		return b.tr
	}
	return nil
}

// begin opens a span and returns the function that closes it with the
// item count.
func (t *tracer) begin(traceID, parent int, name string) (id int, end func(count int64)) {
	if t == nil {
		return 0, func(int64) {}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, TraceID: traceID, Name: name, Parent: parent,
		StartNS: time.Since(t.epoch).Nanoseconds(),
	})
	id = len(t.spans)
	return id, func(count int64) {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans[id-1].EndNS = time.Since(t.epoch).Nanoseconds()
		t.spans[id-1].Count = count
	}
}

// adopt appends spans recorded elsewhere (the layer replay process),
// renumbering them after the tracer's own and hanging their roots
// under parent.
func (t *tracer) adopt(traceID, parent int, foreign []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range foreign {
		s.ID += base
		s.TraceID = traceID
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) writeJSONL(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		s.SelfNS = self[s.ID]
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes gives each span's duration minus the part of it its direct
// children cover. Overlapping children (parallel work) are counted once:
// the covered part is the union of the child intervals clipped to the
// parent.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// procSamplePeriod is the traced runs' /proc sampling rate: 10 Hz.
const procSamplePeriod = 100 * time.Millisecond

// procSample is a process's cumulative CPU time at an instant.
type procSample struct {
	at  time.Time
	cpu float64 // seconds
}

// procSampler reads a process's CPU time from /proc every period on a
// goroutine of its own, from start until stop.
type procSampler struct {
	done    chan struct{}
	samples chan []procSample
	once    sync.Once
	got     []procSample
}

func startProcSampler(pid int, period time.Duration) *procSampler {
	p := &procSampler{done: make(chan struct{}), samples: make(chan []procSample, 1)}
	go func() {
		var got []procSample
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			if cpu, err := procCPUSeconds(pid); err == nil {
				got = append(got, procSample{time.Now(), cpu})
			}
			select {
			case <-p.done:
				p.samples <- got
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends the sampling, waits for the goroutine and returns what it
// read; later calls return the same. A nil sampler has read nothing.
func (p *procSampler) stop() []procSample {
	if p == nil {
		return nil
	}
	p.once.Do(func() {
		close(p.done)
		p.got = <-p.samples
	})
	return p.got
}

// coresBusy is the median, over the intervals between consecutive
// samples, of CPU seconds spent per second of wall time: how many cores
// the process kept busy.
func coresBusy(samples []procSample) float64 {
	var per []float64
	for i := 1; i < len(samples); i++ {
		if dt := samples[i].at.Sub(samples[i-1].at).Seconds(); dt > 0 {
			per = append(per, (samples[i].cpu-samples[i-1].cpu)/dt)
		}
	}
	return median(per)
}
