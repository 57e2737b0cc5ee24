package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"hitlist6/internal/asdb"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/telemetry"
)

// newTestDaemon builds a daemon around a small in-memory pipeline, its
// log discarded but still mirrored into the events ring. snapDir == ""
// leaves durable snapshots disabled.
func newTestDaemon(t *testing.T, snapDir string) *daemon {
	return newSeededDaemon(t, snapDir, nil)
}

// newSeededDaemon is newTestDaemon started on a restored corpus, as
// main does with restoreOrEmpty's.
func newSeededDaemon(t *testing.T, snapDir string, seed *collector.Collector) *daemon {
	t.Helper()
	return newConfiguredDaemon(t, snapDir, func(cfg *ingest.Config) { cfg.Seed = seed })
}

// newChainDaemon is newTestDaemon checkpointing through the delta chain
// (-snapshot.delta), compacting every compact deltas.
func newChainDaemon(t *testing.T, snapDir string, compact int) *daemon {
	t.Helper()
	d := newConfiguredDaemon(t, snapDir, func(cfg *ingest.Config) { cfg.CompactEvery = compact })
	d.deltaMode = true
	return d
}

// newConfiguredDaemon is newTestDaemon with set applied to the
// pipeline's configuration.
func newConfiguredDaemon(t *testing.T, snapDir string, set func(*ingest.Config)) *daemon {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg := ingest.DefaultConfig(2)
	cfg.Registry = reg
	set(&cfg)
	pipe, err := ingest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring := telemetry.NewEventRing(32)
	logger, err := telemetry.NewLogger(telemetry.LogOptions{Output: io.Discard, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{
		pipe: pipe, reg: reg, health: telemetry.NewHealth(), ring: ring, log: logger,
	}
	reg.GaugeFunc("ingestd_malformed_lines",
		"Input lines that failed to parse since start.",
		func() float64 { return float64(d.badLines.Load()) })
	if snapDir != "" {
		d.snapPath = snapshotPath(snapDir)
	}
	return d
}

// feed pushes a couple of events through the pipeline and waits for the
// live store to see them.
func feed(t *testing.T, d *daemon) {
	t.Helper()
	b := d.pipe.NewBatcher()
	ingestDatagram(b, []byte("1643673600 2001:db8::1 3\n1643673601 2001:db8::2 4\n"), &d.badLines)
	b.Flush()
	d.pipe.Quiesce()
	if n := d.pipe.Store().NumAddrs(); n != 2 {
		t.Fatalf("store holds %d addresses after the quiesce, want 2", n)
	}
}

// get fetches a path from the test server and returns status, the
// Content-Type header and the body.
func get(t *testing.T, base, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestEndpointContentTypes pins the HTTP contract of every endpoint:
// the JSON endpoints declare application/json, /metrics declares the
// Prometheus 0.0.4 exposition type, and the probe endpoints are plain
// text. Dashboards and scrapers key off these headers.
func TestEndpointContentTypes(t *testing.T) {
	d := newTestDaemon(t, t.TempDir())
	defer d.pipe.Close()
	d.routes = new(asdb.DB) // enable /outages (shape only; no stage present)
	feed(t, d)
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()

	for _, tc := range []struct {
		path string
		ct   string
	}{
		{"/stats", "application/json"},
		{"/outages", "application/json"},
		{"/metrics", telemetry.ContentType},
		{"/healthz", "text/plain; charset=utf-8"},
		{"/readyz", "text/plain; charset=utf-8"},
		{"/debug/events", "application/json"},
	} {
		status, ct, _ := get(t, srv.URL, tc.path)
		wantStatus := http.StatusOK
		if tc.path == "/readyz" { // not ready until main flips it
			wantStatus = http.StatusServiceUnavailable
		}
		if status != wantStatus {
			t.Errorf("%s: status %d, want %d", tc.path, status, wantStatus)
		}
		if ct != tc.ct {
			t.Errorf("%s: Content-Type %q, want %q", tc.path, ct, tc.ct)
		}
	}
}

// TestStatsEndpointShape decodes /stats and checks the JSON keys the
// dashboards rely on survived the registry-backed Metrics rewrite, and
// that the tier block counts its runs.
func TestStatsEndpointShape(t *testing.T) {
	dir := t.TempDir()
	d := newChainDaemon(t, dir, 0)
	defer d.pipe.Close()
	d.enableTier(dir, 1<<20)
	feed(t, d)
	for range 2 { // the base, then one run
		if _, err := d.checkpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()

	_, _, body := get(t, srv.URL, "/stats")
	var reply statsReply
	if err := json.Unmarshal([]byte(body), &reply); err != nil {
		t.Fatalf("/stats not JSON: %v\n%s", err, body)
	}
	if reply.UniqueAddrs != 2 || reply.Metrics.Processed != 2 {
		t.Errorf("stats = %+v, want 2 addrs / 2 processed", reply)
	}
	for _, key := range []string{
		`"enqueued"`, `"processed"`, `"events_per_sec"`, `"corpus_bytes"`,
		`"checkpoints"`, `"queued_batches"`,
		`"tier":{`, `"runs":1,`, `"chunks":`, `"resident_bytes":`, `"addrs":2,`, `"filter_probes":`,
	} {
		if !strings.Contains(body, key) {
			t.Errorf("/stats lost key %s:\n%s", key, body)
		}
	}
}

// TestMetricsEndpoint checks the exposition end to end: well-formed
// 0.0.4 text carrying the pipeline's per-shard and distribution
// families plus the daemon's own gauges.
func TestMetricsEndpoint(t *testing.T) {
	d := newTestDaemon(t, t.TempDir())
	defer d.pipe.Close()
	feed(t, d)
	if _, err := d.pipe.CheckpointFile(d.snapPath); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()

	_, _, body := get(t, srv.URL, "/metrics")
	if problems := telemetry.LintExposition(body); len(problems) > 0 {
		t.Errorf("exposition not well-formed: %v", problems)
	}
	for _, want := range []string{
		`ingest_events_processed_total 2`,
		`ingest_queue_depth{shard="0"}`,
		`ingest_queue_depth{shard="1"}`,
		`ingest_batch_seconds_bucket{shard="0",le=`,
		`ingest_batch_events_sum`,
		`ingest_checkpoint_seconds_count 1`,
		`ingest_checkpoint_written_bytes_count 1`,
		`ingest_corpus_addresses 2`,
		`ingestd_malformed_lines 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDebugEndpoints covers the introspection surface: log records
// appear on /debug/events, and the explicit pprof routes respond on
// the daemon's private mux.
func TestDebugEndpoints(t *testing.T) {
	d := newTestDaemon(t, "")
	defer d.pipe.Close()
	d.log.Info("checkpoint written", "bytes", 123)
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()

	_, _, body := get(t, srv.URL, "/debug/events")
	if !strings.Contains(body, "checkpoint written") || !strings.Contains(body, `"bytes":"123"`) {
		t.Errorf("/debug/events missing the logged record:\n%s", body)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		if status, _, _ := get(t, srv.URL, path); status != http.StatusOK {
			t.Errorf("%s: status %d", path, status)
		}
	}
}

// TestSnapshotEndpointMethods pins /snapshot's method handling: GET is
// rejected, POST writes and reports the checkpoint.
func TestSnapshotEndpointMethods(t *testing.T) {
	d := newTestDaemon(t, t.TempDir())
	defer d.pipe.Close()
	feed(t, d)
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()

	if status, _, _ := get(t, srv.URL, "/snapshot"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /snapshot: status %d, want 405", status)
	}
	resp, err := http.Post(srv.URL+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply snapshotReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Path != d.snapPath || reply.Bytes <= 0 {
		t.Errorf("snapshot reply %+v", reply)
	}
}

// TestGracefulShutdown drives the full drain: the readiness gate flips,
// the (fake) source is stopped and awaited, the final checkpoint lands
// on disk restorable, and the HTTP listener refuses new connections.
func TestGracefulShutdown(t *testing.T) {
	d := newTestDaemon(t, t.TempDir())
	feed(t, d)
	d.health.SetReady()

	// A stand-in source: stopSource signals it, and it closes sourceDone
	// after one last flush — the same contract ingestUDP follows.
	stop := make(chan struct{})
	d.sourceDone = make(chan struct{})
	d.stopSource = func() { close(stop) }
	go func() {
		defer close(d.sourceDone)
		<-stop
		b := d.pipe.NewBatcher()
		ingestDatagram(b, []byte("1643673700 2001:db8::99 1\n"), &d.badLines)
		b.Flush()
	}()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: d.newMux()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	if status, _, _ := get(t, base, "/readyz"); status != http.StatusOK {
		t.Fatalf("ready daemon reports %d", status)
	}

	d.shutdown(srv)

	if ready, reason := d.health.Ready(); ready || reason != "shutting down" {
		t.Errorf("after shutdown: ready=%v reason=%q", ready, reason)
	}
	select {
	case <-d.sourceDone:
	default:
		t.Error("shutdown returned before the source stopped")
	}
	// The final checkpoint contains everything, including the event the
	// source flushed during the drain.
	c, err := ingest.RestoreFile(d.snapPath)
	if err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if c == nil || c.NumAddrs() != 3 {
		t.Fatalf("final checkpoint incomplete: %+v", c)
	}
	// Listener closed: fresh connections must fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("HTTP listener still accepting after shutdown")
	}
	d.pipe.Close()
}

// TestCheckpointTicker: -snapshot.every drives the same checkpointNow as
// POST /snapshot, so with the tiered corpus on a periodic checkpoint
// also rewrites the tier — an address fed after start-up becomes
// visible to /probe with nobody posting — and shutdown stops the ticker
// before its final checkpoint, so nothing checkpoints once it returns.
func TestCheckpointTicker(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, dir)
	defer d.pipe.Close()
	d.enableTier(dir, 1<<20)
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()
	const cadence = 20 * time.Millisecond
	d.startCheckpointTicker(cadence)

	feed(t, d)
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, body := get(t, srv.URL, "/probe?addr=2001:db8::1")
		if status == http.StatusOK && strings.Contains(body, `"found":true`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/probe never saw the fed address: status %d, %s", status, body)
		}
		time.Sleep(cadence / 4)
	}
	if _, err := os.Stat(d.snapPath); err != nil {
		t.Fatalf("periodic checkpoint left no file: %v", err)
	}

	// Exactly one checkpoint — the final one — runs between the ticker
	// stopping and shutdown returning, and none after.
	stop := d.stopTicker
	var atStop uint64
	d.stopTicker = func() { stop(); atStop = d.pipe.Metrics().Checkpoints }
	d.shutdown(nil)
	atReturn := d.pipe.Metrics().Checkpoints
	if atReturn != atStop+1 {
		t.Errorf("%d checkpoints between ticker stop and shutdown's return, want the final one only", atReturn-atStop)
	}
	time.Sleep(5 * cadence)
	if now := d.pipe.Metrics().Checkpoints; now != atReturn {
		t.Errorf("%d checkpoints started after shutdown returned", now-atReturn)
	}
}
