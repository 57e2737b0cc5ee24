package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"hitlist6/internal/ingest"
)

// TestRestoreOrEmpty pins the daemon's crash-recovery behaviour: a good
// checkpoint restores, a missing one starts empty silently, and a
// damaged one starts empty with a logged warning — never an abort, and
// never a partial corpus.
func TestRestoreOrEmpty(t *testing.T) {
	dir := t.TempDir()
	path := snapshotPath(dir)

	// Missing: empty start, nothing logged.
	log, records := recordingLogger(t)
	if c := restoreOrEmpty(path, log); c != nil {
		t.Fatalf("missing checkpoint restored something: %v", c)
	}
	if len(*records) != 0 {
		t.Fatalf("missing checkpoint logged %d records", len(*records))
	}

	// Write a real checkpoint through the pipeline.
	pipe, err := ingest.New(ingest.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := pipe.NewBatcher()
	var bad atomic.Uint64
	for i := 0; i < 100; i++ {
		ingestDatagram(b, []byte(fmt.Sprintf("164367%04d 2001:db8::%x %d", i, i+1, i%27)), &bad)
	}
	b.Flush()
	if _, err := pipe.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	pipe.Close()

	// Good: restores with one informational record carrying the counts.
	log, records = recordingLogger(t)
	c := restoreOrEmpty(path, log)
	if c == nil {
		t.Fatal("good checkpoint did not restore")
	}
	if c.NumAddrs() != 100 || c.TotalObservations() != 100 {
		t.Fatalf("restored %d addrs / %d obs, want 100/100", c.NumAddrs(), c.TotalObservations())
	}
	if len(*records) != 1 || (*records)[0].Level != slog.LevelInfo ||
		attr((*records)[0], "addresses") != "100" || attr((*records)[0], "observations") != "100" ||
		attr((*records)[0], "path") != path {
		t.Fatalf("restore logging off: %v", *records)
	}

	// Damaged, at every kind of cut: truncations at framing-ish offsets
	// and bit flips. All must fall back to empty with a warning.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string][]byte{
		"empty file":      {},
		"half magic":      raw[:4],
		"header only":     raw[:12],
		"mid sections":    raw[:len(raw)/2],
		"missing trailer": raw[:len(raw)-7],
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(raw)/3] ^= 0x10
	damage["bit flip"] = flipped
	garbage := append([]byte(nil), raw...)
	copy(garbage, "not a corpus snapshot at all")
	damage["overwritten head"] = garbage

	for name, body := range damage {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		log, records = recordingLogger(t)
		if c := restoreOrEmpty(path, log); c != nil {
			t.Errorf("%s: damaged checkpoint restored (%d addrs)", name, c.NumAddrs())
		}
		if len(*records) != 1 || (*records)[0].Level != slog.LevelWarn || attr((*records)[0], "path") != path {
			t.Errorf("%s: expected one warning naming the path, got %v", name, *records)
		}
	}
}

// TestRestartWithoutDeltaFlag: -snapshot.delta chooses how checkpoints
// are written, not what a start reads. A daemon that wrote a chain and
// comes back without the flag restores base and deltas — /stats shows
// the whole stream — and its first plain checkpoint leaves no delta
// file behind to be mistaken for part of a later chain.
func TestRestartWithoutDeltaFlag(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, dir)
	d.deltaMode = true
	feed(t, d) // 2 addresses
	if _, err := d.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	b := d.pipe.NewBatcher()
	for i := 0; i < 50; i++ {
		ingestDatagram(b, []byte(fmt.Sprintf("164368%04d 2001:db8:1::%x %d", i, i+1, i%27)), &d.badLines)
	}
	b.Flush()
	if _, err := d.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	d.pipe.Close()
	if deltas, _ := filepath.Glob(d.snapPath + ".delta.*"); len(deltas) != 1 {
		t.Fatalf("setup: delta files %v", deltas)
	}

	d = newSeededDaemon(t, dir, restoreOrEmpty(snapshotPath(dir), testLogger(t)))
	defer d.pipe.Close()
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()
	_, _, body := get(t, srv.URL, "/stats")
	var reply statsReply
	if err := json.Unmarshal([]byte(body), &reply); err != nil {
		t.Fatalf("/stats not JSON: %v\n%s", err, body)
	}
	if reply.UniqueAddrs != 52 || reply.Observations != 52 {
		t.Fatalf("restarted without -snapshot.delta: %d addrs / %d observations, want 52/52",
			reply.UniqueAddrs, reply.Observations)
	}
	if _, err := d.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	if deltas, _ := filepath.Glob(d.snapPath + ".delta.*"); len(deltas) != 0 {
		t.Fatalf("plain checkpoint left %v", deltas)
	}
	if c, err := ingest.RestoreFile(d.snapPath); err != nil || c.NumAddrs() != 52 {
		t.Fatalf("plain checkpoint after the restart: %v", err)
	}
}

// TestRestoreOrEmptyReportsSuperseded: delta files that do not chain
// onto the base (a checkpoint was interrupted between writing the base
// and removing them) cost a warning, not the corpus.
func TestRestoreOrEmptyReportsSuperseded(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, dir)
	d.deltaMode = true
	feed(t, d)
	if _, err := d.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	b := d.pipe.NewBatcher()
	ingestDatagram(b, []byte("1643673700 2001:db8::3 1\n"), &d.badLines)
	b.Flush()
	if _, err := d.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(d.snapPath + ".delta.000001")
	if err != nil {
		t.Fatal(err)
	}
	d.deltaMode = false // a full base over the chain
	if _, err := d.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	d.pipe.Close()
	if err := os.WriteFile(d.snapPath+".delta.000001", stale, 0o644); err != nil {
		t.Fatal(err)
	}

	log, records := recordingLogger(t)
	c := restoreOrEmpty(d.snapPath, log)
	if c == nil || c.NumAddrs() != 3 {
		t.Fatalf("restore beside a superseded delta: %v, log %v", c, *records)
	}
	if r := *records; len(r) != 2 || r[0].Level != slog.LevelWarn ||
		!strings.Contains(attr(r[0], "superseded"), "delta.000001") || r[1].Level != slog.LevelInfo {
		t.Fatalf("log = %v, want a warning naming the delta, then the restore record", r)
	}
	if _, err := os.Stat(d.snapPath + ".delta.000001"); !os.IsNotExist(err) {
		t.Fatalf("superseded delta still on disk (%v)", err)
	}
}

// TestSnapshotPathShape keeps the on-disk layout stable: tooling and
// operators rely on corpus.snap inside the snapshot dir.
func TestSnapshotPathShape(t *testing.T) {
	if got := snapshotPath("/var/lib/ingestd"); got != filepath.Join("/var/lib/ingestd", "corpus.snap") {
		t.Fatalf("snapshotPath = %q", got)
	}
}

// FuzzIngestDatagram hardens the UDP line handler end to end: arbitrary
// datagram payloads must never panic the batcher path, blank/comment
// fragments must never count as malformed, and the accepted-event count
// must match a line-by-line reparse. Run continuously with:
//
//	go test ./cmd/ingestd -run '^$' -fuzz '^FuzzIngestDatagram$' -fuzztime 30s
func FuzzIngestDatagram(f *testing.F) {
	f.Add([]byte("1643673600 2001:db8::1 3\n1643673601 2001:db8::2\n"))
	f.Add([]byte("garbage\n\r\n# comment\n   \n"))
	f.Add([]byte("1643673600 2001:db8::1 3"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{0, 1, 2, 0xff})
	f.Add([]byte("1643673600 ::ffff:192.0.2.1 31\r\n"))

	pipe, err := ingest.New(ingest.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		b := pipe.NewBatcher()
		var bad atomic.Uint64
		added := ingestDatagram(b, data, &bad)
		b.Flush()

		// Reconcile against a direct reparse of each fragment.
		wantAdded, wantBad := 0, uint64(0)
		for _, line := range strings.Split(string(data), "\n") {
			trimmed := strings.TrimSpace(line)
			if trimmed == "" || trimmed[0] == '#' {
				continue
			}
			if _, err := ingest.ParseEventBytes([]byte(trimmed)); err != nil {
				wantBad++
			} else {
				wantAdded++
			}
		}
		if added != wantAdded || bad.Load() != wantBad {
			t.Fatalf("datagram %q: added %d bad %d, want %d/%d",
				data, added, bad.Load(), wantAdded, wantBad)
		}
	})
}

// testLogger is a logger that writes to the test's log.
func testLogger(t testing.TB) *slog.Logger {
	log, _ := recordingLogger(t)
	return log
}

// recordingLogger is testLogger that also keeps every record it
// handles, in order, for a test to check levels and attributes.
func recordingLogger(t testing.TB) (*slog.Logger, *[]slog.Record) {
	h := &recorder{t: t}
	return slog.New(h), &h.records
}

type recorder struct {
	t       testing.TB
	records []slog.Record
}

func (r *recorder) Enabled(context.Context, slog.Level) bool { return true }

func (r *recorder) Handle(_ context.Context, rec slog.Record) error {
	var b strings.Builder
	b.WriteString(rec.Level.String() + " " + rec.Message)
	rec.Attrs(func(a slog.Attr) bool {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
		return true
	})
	r.t.Log(b.String())
	r.records = append(r.records, rec)
	return nil
}

// WithAttrs and WithGroup drop what they are given: nothing that logs
// through a recorder uses them.
func (r *recorder) WithAttrs([]slog.Attr) slog.Handler { return r }
func (r *recorder) WithGroup(string) slog.Handler      { return r }

// attr renders the value of rec's attribute key, "" when it has none.
func attr(rec slog.Record, key string) string {
	v := ""
	rec.Attrs(func(a slog.Attr) bool {
		if a.Key == key {
			v = a.Value.String()
			return false
		}
		return true
	})
	return v
}
