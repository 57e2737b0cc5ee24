package telemetry

import (
	"math"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "events seen")
	c.Add(41)
	c.Inc()
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	g := r.Gauge("test_depth", "queue depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	g.SetMax(3)
	if g.Value() != 5 {
		t.Error("SetMax lowered the gauge")
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Errorf("SetMax did not raise: %d", g.Value())
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "help", L("shard", "0"))
	b := r.Counter("dup_total", "help", L("shard", "0"))
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	other := r.Counter("dup_total", "help", L("shard", "1"))
	if other == a {
		t.Error("distinct labels shared a counter")
	}
	// Kind conflicts are programming errors: they must panic loudly
	// rather than silently alias a counter as a gauge.
	defer func() {
		if recover() == nil {
			t.Error("kind conflict did not panic")
		}
	}()
	r.Gauge("dup_total", "help")
}

func TestGaugeFuncLatestWins(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("fn_gauge", "computed", func() float64 { return 1 })
	r.GaugeFunc("fn_gauge", "computed", func() float64 { return 2 })
	out := expose(t, r)
	if !strings.Contains(out, "fn_gauge 2\n") {
		t.Errorf("replaced GaugeFunc not in effect:\n%s", out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.56) > 1e-9 {
		t.Fatalf("sum = %v, want 5.56", h.Sum())
	}
	out := expose(t, r)
	for _, want := range []string{
		`test_seconds_bucket{le="0.01"} 2`,
		`test_seconds_bucket{le="0.1"} 3`,
		`test_seconds_bucket{le="1"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		`test_seconds_count 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	h.ObserveDuration(50 * time.Millisecond)
	if h.Count() != 6 {
		t.Error("ObserveDuration did not land")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_seconds", "latency", DurationBuckets())
	var wg sync.WaitGroup
	const goroutines, per = 8, 10000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g%4) * 1e-5)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
}

func TestBucketPresets(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"duration": DurationBuckets(),
		"size":     SizeBuckets(),
		"count":    CountBuckets(),
	} {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Errorf("%s buckets not ascending at %d", name, i)
			}
		}
	}
	if b := DurationBuckets(); b[0] != 1e-6 || b[len(b)-1] < 4 {
		t.Errorf("duration bucket span unexpected: %v", b)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "h", L("path", "a\"b\\c\nd")).Inc()
	out := expose(t, r)
	if !strings.Contains(out, `esc_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label escaping wrong:\n%s", out)
	}
}

// ValidateExposition asserts LintExposition finds nothing wrong.
func ValidateExposition(t *testing.T, text string) {
	t.Helper()
	for _, p := range LintExposition(text) {
		t.Error(p)
	}
}

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestWritePrometheusWellFormed(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_events_total", "events", L("shard", "0")).Add(10)
	r.Counter("app_events_total", "events", L("shard", "1")).Add(20)
	r.Gauge("app_depth", "depth").Set(3)
	r.GaugeFunc("app_computed", "computed", func() float64 { return 1.5 })
	r.Histogram("app_seconds", "latency", DurationBuckets()).Observe(0.02)
	out := expose(t, r)
	ValidateExposition(t, out)
	// Families render sorted by name, series in registration order.
	if !regexp.MustCompile(`(?s)app_computed.*app_depth.*app_events_total.*app_seconds`).MatchString(out) {
		t.Errorf("families not sorted:\n%s", out)
	}
	shard0 := strings.Index(out, `app_events_total{shard="0"}`)
	shard1 := strings.Index(out, `app_events_total{shard="1"}`)
	if shard0 < 0 || shard1 < 0 || shard1 < shard0 {
		t.Errorf("series order wrong:\n%s", out)
	}
}

func TestMetricsHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ContentType)
	}
	ValidateExposition(t, rec.Body.String())
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }
