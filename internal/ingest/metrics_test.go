package ingest

import "testing"

func TestMetricsCorpusTelemetry(t *testing.T) {
	events := testEvents(t, 0.03, 8)
	p, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	p.Ingest(events)
	p.Quiesce()
	m := p.Metrics()
	if m.CorpusBytes == 0 {
		t.Error("CorpusBytes zero on populated store")
	}
	if m.BytesPerAddr <= 0 {
		t.Errorf("BytesPerAddr %v", m.BytesPerAddr)
	}
	// The flat layout should hold a small corpus well under 400 B/addr
	// even with slab-growth slack.
	if m.BytesPerAddr > 400 {
		t.Errorf("BytesPerAddr %.1f implausibly high for the flat layout", m.BytesPerAddr)
	}
	if m.RecentEventsPerSec < 0 {
		t.Errorf("RecentEventsPerSec %v", m.RecentEventsPerSec)
	}
	p.Close()
}

// TestMetricsSingleSampleFallback pins the first-poll behaviour at the
// Metrics level: with only one window sample there is no recent
// interval yet, so RecentEventsPerSec must fall back to the lifetime
// average rather than reporting zero on a busy pipeline.
func TestMetricsSingleSampleFallback(t *testing.T) {
	p, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Ingest(testEvents(t, 0.02, 4))
	p.Quiesce() // fence: every enqueued event is folded before the poll
	m := p.Metrics()
	if m.EventsPerSec <= 0 {
		t.Fatalf("lifetime rate %v after ingesting events", m.EventsPerSec)
	}
	if m.RecentEventsPerSec != m.EventsPerSec {
		t.Errorf("first poll: recent %v != lifetime %v",
			m.RecentEventsPerSec, m.EventsPerSec)
	}
}
