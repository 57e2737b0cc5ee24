package ingest

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hitlist6/internal/collector"
)

// TestCheckpointRestoreEquivalence is the durable-path extension of the
// 1/4/16-shard equivalence suite (run with -race): ingest half a stream
// from three concurrent producers, checkpoint mid-ingest, restore the
// checkpoint into a fresh pipeline, finish the stream there — and the
// final corpus must be byte-identical (canonical Checksum) to an
// uninterrupted serial run of the whole stream.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	events := testEvents(t, 0.03, 12)
	serial := collector.New()
	for _, ev := range events {
		serial.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
	}
	want := serial.Checksum()

	// One subtest, under the id this leg has always reported as.
	t.Run("queue=chan", func(t *testing.T) {
		for _, shards := range []int{1, 4, 16} {
			cfg := DefaultConfig(shards)
			cfg.BatchSize = 32
			first, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			feedConcurrently(first, events[:len(events)/2], 3)

			var ckpt bytes.Buffer
			bw := bufio.NewWriter(&ckpt)
			if err := first.Checkpoint(bw); err != nil {
				t.Fatalf("shards=%d: checkpoint: %v", shards, err)
			}
			first.Close() // the interrupted process

			restored, err := collector.OpenSnapshot(bytes.NewReader(ckpt.Bytes()))
			if err != nil {
				t.Fatalf("shards=%d: restore: %v", shards, err)
			}
			cfg.Seed = restored
			second, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			feedConcurrently(second, events[len(events)/2:], 3)
			merged := second.Close()

			if got := merged.Checksum(); got != want {
				t.Errorf("shards=%d: checkpoint/restore corpus differs from serial run", shards)
			}
			if merged.TotalObservations() != uint64(len(events)) {
				t.Errorf("shards=%d: %d observations, want %d", shards,
					merged.TotalObservations(), len(events))
			}
		}
	})
}

// TestCheckpointCoversFlushed: Quiesce-backed checkpoints must contain
// every event flushed before the call, not merely handed to queues.
func TestCheckpointCoversFlushed(t *testing.T) {
	events := testEvents(t, 0.02, 6)
	p, err := New(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	p.Ingest(events) // Ingest flushes

	var ckpt bytes.Buffer
	if err := p.Checkpoint(bufio.NewWriter(&ckpt)); err != nil {
		t.Fatal(err)
	}
	restored, err := collector.OpenSnapshot(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.TotalObservations() != uint64(len(events)) {
		t.Fatalf("checkpoint holds %d observations, want %d (flushed before Checkpoint)",
			restored.TotalObservations(), len(events))
	}
	p.Close()
}

// TestCheckpointFileAtomicAndRestore covers the file protocol: write,
// restore, overwrite, and the missing-file case.
func TestCheckpointFileAtomicAndRestore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")

	if c, err := RestoreFile(path); err != nil || c != nil {
		t.Fatalf("missing checkpoint: got (%v, %v), want (nil, nil)", c, err)
	}

	events := testEvents(t, 0.02, 6)
	p, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	p.Ingest(events[:len(events)/2])
	if _, err := p.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	p.Ingest(events[len(events)/2:])
	size, err := p.CheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != size {
		t.Fatalf("checkpoint file size %v vs reported %d (err %v)", fi, size, err)
	}
	m := p.Metrics()
	if m.Checkpoints != 2 || m.CheckpointErrors != 0 || m.LastCheckpointBytes != uint64(size) {
		t.Fatalf("checkpoint metrics off: %+v", m)
	}
	merged := p.Close()

	restored, err := RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Checksum() != merged.Checksum() {
		t.Fatalf("restored checkpoint differs from the live corpus it captured")
	}

	// No temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "corpus.snap" {
		t.Fatalf("checkpoint dir litter: %v", entries)
	}

	// Corrupt checkpoint: RestoreFile must error, not return a husk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err := RestoreFile(path); err == nil {
		t.Fatalf("corrupt checkpoint restored: %v", c)
	}
}

// TestAtomicWriteFileSyncsDir: the rename is followed by exactly one
// fsync of the target's directory, and a failure of that fsync reaches
// the caller — the checkpoint may not be reported durable — while the
// renamed file itself is whole.
func TestAtomicWriteFileSyncsDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	write := func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}

	realSync := syncDir
	defer func() { syncDir = realSync }()
	var synced []string
	syncDir = func(d string) error {
		synced = append(synced, d)
		return realSync(d)
	}
	if _, err := AtomicWriteFile(path, write); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("directory syncs = %v, want exactly [%s]", synced, dir)
	}

	injected := errors.New("injected directory fsync failure")
	syncDir = func(string) error { return injected }
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := AtomicWriteFile(path, write); !errors.Is(err, injected) {
		t.Fatalf("AtomicWriteFile error = %v, want the injected sync failure", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "payload" {
		t.Fatalf("renamed file after a failed directory sync = %q, %v", got, err)
	}
}

// TestCheckpointTicker: a pipeline configured with CheckpointInterval
// writes checkpoints on its own.
func TestCheckpointTicker(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	cfg := DefaultConfig(2)
	cfg.CheckpointPath = path
	cfg.CheckpointInterval = 10 * time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Ingest(testEvents(t, 0.02, 4))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := p.Metrics(); m.Checkpoints > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no periodic checkpoint within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	merged := p.Close()
	restored, err := RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored == nil {
		t.Fatal("ticker reported a checkpoint but no file restores")
	}
	// The ticker may have fired before the final events flushed; the
	// checkpoint must be a prefix-consistent corpus, not necessarily the
	// final one.
	if restored.TotalObservations() > merged.TotalObservations() {
		t.Fatalf("checkpoint holds more observations (%d) than the corpus (%d)",
			restored.TotalObservations(), merged.TotalObservations())
	}
}

// TestSeedStage errors on unknown stages and seeds known ones.
func TestSeedStage(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Stages = []StageFactory{Categories()}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	seed := &CategoryStage{}
	seed.Counts[0] = 41
	if err := p.SeedStage("categories", seed); err != nil {
		t.Fatal(err)
	}
	if err := p.SeedStage("nonesuch", &CategoryStage{}); err == nil {
		t.Fatal("seeding an unknown stage succeeded")
	}
	st := p.Stage("categories").(*CategoryStage)
	if st.Counts[0] != 41 {
		t.Fatalf("seeded count %d, want 41", st.Counts[0])
	}
}
