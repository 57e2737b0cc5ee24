// Package telemetry is the production observability substrate shared by
// every daemon in this repository: a zero-dependency metrics registry
// (atomic counters, gauges, and fixed-bucket histograms, all lock-free
// on the update path) that renders the Prometheus text exposition
// format, plus the structured-logging setup, a bounded recent-events
// ring for /debug/events, and liveness/readiness handlers.
//
// The design constraint is the ingest hot path: a pipeline folding
// millions of events per second cannot afford a lock, a map lookup, or
// an allocation per observation. Registration (the only part that
// locks or allocates) happens once at setup; the returned *Counter,
// *Gauge and *Histogram handles are then plain atomics the hot path
// updates directly. Exposition walks the registry under its lock, but
// scrapes are rare and never block updates.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension, e.g. {Key: "shard", Value: "3"}.
// Labels are rendered once at registration; the hot path never touches
// them.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// ---- Metric kinds ----

// Counter is a monotonically increasing value: one atomic, nothing
// else. The zero handle is not usable — obtain one from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (queue depths, timestamps,
// sizes). Stored as int64; use a GaugeFunc for float-valued readings.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v is larger — the high-water-mark
// update, lock-free via CAS.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution: per-bucket atomic counts
// (lock-free increments), plus a CAS-maintained float sum. Bucket
// bounds are upper bounds in ascending order; observations above the
// last bound land in the implicit +Inf bucket. Exposition renders the
// standard Prometheus cumulative _bucket/_sum/_count triplet.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // math.Float64bits of the running sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	// Linear scan: bucket lists are short (≤ ~16) and most observations
	// land in the low buckets, so this beats a binary search in practice.
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds (the Prometheus base
// unit for time).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
//
//lint:api tests across packages read how many observations a timed path made
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ---- Bucket presets ----

// ExponentialBuckets returns n upper bounds starting at start, each
// factor times the previous. Panics on invalid parameters (a setup-time
// config error, like an invalid HLL precision).
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("telemetry: invalid bucket spec (start=%g factor=%g n=%d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets spans 1µs–4s in powers of 4: wide enough for a
// per-batch observe loop (tens of µs) and a multi-GB checkpoint
// (seconds) on one scale.
func DurationBuckets() []float64 { return ExponentialBuckets(1e-6, 4, 12) }

// SizeBuckets spans 1KiB–4GiB in powers of 4, for byte-valued
// distributions (checkpoint sizes, snapshot streams).
func SizeBuckets() []float64 { return ExponentialBuckets(1024, 4, 12) }

// CountBuckets spans 1–4096 in powers of 2, for small cardinal
// distributions (events per batch).
func CountBuckets() []float64 { return ExponentialBuckets(1, 2, 13) }

// ---- Registry ----

// Registry holds named metric families, each with one or more labeled
// series. Registration is idempotent: asking for an existing
// name+labels returns the same handle (so a restarted pipeline sharing
// a daemon's registry keeps accumulating into the same series), while
// re-registering a name with a different kind or bucket layout panics —
// that is a programming error, not an operational condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// metricKind discriminates family types in the exposition output.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string // label strings in registration order
	series map[string]*series
}

type series struct {
	labels  string // pre-rendered `key="value",...` (no braces), "" for none
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// lookup finds or creates the (family, series) slot for name+labels,
// enforcing kind consistency. Caller holds r.mu.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) (*family, *series, bool) {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	ls := renderLabels(labels)
	if s, ok := f.series[ls]; ok {
		return f, s, true
	}
	s := &series{labels: ls}
	f.series[ls] = s
	f.order = append(f.order, ls)
	return f, s, false
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if !metricNameRE.MatchString(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, existed := r.lookup(name, help, kindCounter, labels)
	if !existed {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, existed := r.lookup(name, help, kindGauge, labels)
	if !existed {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge series whose value is computed at scrape
// time — the right shape for readings that already exist elsewhere
// (queue depths, corpus footprints): zero hot-path cost, always
// current. Re-registering replaces the function (latest wins), so a
// restarted pipeline's closures displace the dead one's.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, _ := r.lookup(name, help, kindGauge, labels)
	s.gaugeFn = fn
}

// Histogram registers (or finds) a histogram series over the given
// ascending upper bounds (see the bucket presets). A re-registration
// with different bounds panics.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s bounds not ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, existed := r.lookup(name, help, kindHistogram, labels)
	if !existed {
		s.hist = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
		return s.hist
	}
	if len(s.hist.bounds) != len(bounds) {
		panic(fmt.Sprintf("telemetry: histogram %s re-registered with different buckets", name))
	}
	for i, b := range bounds {
		if s.hist.bounds[i] != b {
			panic(fmt.Sprintf("telemetry: histogram %s re-registered with different buckets", name))
		}
	}
	return s.hist
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4), families sorted by name, series in registration
// order within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot the family pointers under the lock; the atomic reads
	// below are safe without it, and rendering outside the lock keeps
	// slow writers from blocking registration.
	fams := make([]*family, len(names))
	sers := make([][]*series, len(names))
	for i, name := range names {
		f := r.families[name]
		fams[i] = f
		ss := make([]*series, len(f.order))
		for j, ls := range f.order {
			ss[j] = f.series[ls]
		}
		sers[i] = ss
	}
	r.mu.Unlock()

	var b strings.Builder
	for i, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range sers[i] {
			writeSeries(&b, f, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSeries(b *strings.Builder, f *family, s *series) {
	switch f.kind {
	case kindCounter:
		writeSample(b, f.name, s.labels, "", float64(s.counter.Value()))
	case kindGauge:
		if s.gaugeFn != nil {
			writeSample(b, f.name, s.labels, "", s.gaugeFn())
		} else {
			writeSample(b, f.name, s.labels, "", float64(s.gauge.Value()))
		}
	case kindHistogram:
		h := s.hist
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			writeSample(b, f.name+"_bucket", s.labels, formatLE(bound), float64(cum))
		}
		cum += h.counts[len(h.bounds)].Load()
		writeSample(b, f.name+"_bucket", s.labels, "+Inf", float64(cum))
		writeSample(b, f.name+"_sum", s.labels, "", h.Sum())
		writeSample(b, f.name+"_count", s.labels, "", float64(cum))
	}
}

func formatLE(bound float64) string {
	return strconv.FormatFloat(bound, 'g', -1, 64)
}

// writeSample emits one `name{labels,le="x"} value` line. le is the
// histogram bucket bound ("" for non-bucket samples).
func writeSample(b *strings.Builder, name, labels, le string, v float64) {
	b.WriteString(name)
	if labels != "" || le != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if le != "" {
			if labels != "" {
				b.WriteByte(',')
			}
			b.WriteString(`le="`)
			b.WriteString(le)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	switch {
	case math.IsInf(v, 1):
		b.WriteString("+Inf")
	case math.IsInf(v, -1):
		b.WriteString("-Inf")
	case math.IsNaN(v):
		b.WriteString("NaN")
	default:
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	b.WriteByte('\n')
}

// ContentType is the Prometheus text exposition content type /metrics
// must serve.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns the /metrics HTTP handler for this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		if err := r.WritePrometheus(w); err != nil {
			// Headers are gone; nothing useful to report to the client.
			return
		}
	})
}
