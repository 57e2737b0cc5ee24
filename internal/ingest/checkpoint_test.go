package ingest

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"hitlist6/internal/collector"
)

// TestCheckpointRestoreEquivalence is the durable-path extension of
// TestConcurrentProducersMatchSerial (run with -race): ingest half a stream
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
		cfg := DefaultConfig()
		cfg.BatchSize = 32
		first, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedConcurrently(first, events[:len(events)/2], 3)

		path := filepath.Join(t.TempDir(), "corpus.snap")
		if _, err := first.CheckpointFile(path); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		first.Close() // the interrupted process

		restored, err := RestoreFile(path)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		cfg.Seed = restored
		second, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedConcurrently(second, events[len(events)/2:], 3)
		merged := second.Close()

		if got := merged.Checksum(); got != want {
			t.Error("checkpoint/restore corpus differs from serial run")
		}
		if merged.TotalObservations() != uint64(len(events)) {
			t.Errorf("%d observations, want %d", merged.TotalObservations(), len(events))
		}
	})
}

// TestCheckpointCoversFlushed: Quiesce-backed checkpoints must contain
// every event flushed before the call, not merely handed to queues.
func TestCheckpointCoversFlushed(t *testing.T) {
	events := testEvents(t, 0.02, 6)
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.Ingest(events) // Ingest flushes

	path := filepath.Join(t.TempDir(), "corpus.snap")
	if _, err := p.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.TotalObservations() != uint64(len(events)) {
		t.Fatalf("checkpoint holds %d observations, want %d (flushed before CheckpointFile)",
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
	p, err := New(DefaultConfig())
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

// TestCheckpointErrorsCounted: a failed checkpoint is counted whoever
// called it, in both protocols — the counter behind /stats
// checkpoint_errors and ingest_checkpoint_errors_total. The failure is
// a directory fsync error, which lands after the corpus watermark has
// advanced, so the chain half also checks that the next chain
// checkpoint re-anchors with a full base instead of cutting a delta
// against a state the disk may not hold.
func TestCheckpointErrorsCounted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.snap")
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	events := testEvents(t, 0.02, 4)
	p.Ingest(events[:len(events)/2])
	if _, err := p.CheckpointChain(path); err != nil {
		t.Fatal(err)
	}

	realSync := syncDir
	defer func() { syncDir = realSync }()
	injected := errors.New("injected directory fsync failure")
	syncDir = func(string) error { return injected }
	p.Ingest(events[len(events)/2:])
	for i, checkpoint := range []func(string) (int64, error){p.CheckpointFile, p.CheckpointChain} {
		if _, err := checkpoint(path); !errors.Is(err, injected) {
			t.Fatalf("call %d: error = %v, want the injected sync failure", i, err)
		}
		if m := p.Metrics(); m.CheckpointErrors != uint64(i+1) || m.Checkpoints != 1 {
			t.Fatalf("call %d: %d errors, %d checkpoints; want %d and 1", i, m.CheckpointErrors, m.Checkpoints, i+1)
		}
	}
	syncDir = realSync

	// The failed chain attempt was a delta whose watermark advanced: the
	// next one must be a full base at chain position 0, deltas removed.
	if _, err := p.CheckpointChain(path); err != nil {
		t.Fatal(err)
	}
	if m := p.Metrics(); m.ChainSeq != 0 || m.DeltaCheckpoints != 0 || m.Checkpoints != 2 || m.CheckpointErrors != 2 {
		t.Fatalf("after the failure the chain did not re-anchor: %+v", m)
	}
	if left := chainDeltaFiles(path); len(left) != 0 {
		t.Fatalf("re-anchored chain kept delta files: %v", left)
	}
	restored, err := RestoreChainFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Checksum() != storeChecksum(p.Store()) {
		t.Fatal("re-anchored chain restores to a different corpus")
	}
}

// TestSeedStage: seeding installs the given instance in place of the
// named one, which the worker then feeds; an unknown name is an error,
// and so is a seed after the worker has processed a batch, which an
// install would silently throw away.
func TestSeedStage(t *testing.T) {
	events := testEvents(t, 0.01, 3)
	cfg := DefaultConfig()
	cfg.Stages = []StageFactory{Categories()}

	t.Run("install-then-read", func(t *testing.T) {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seed := &CategoryStage{}
		seed.Counts[0] = 41
		if err := p.SeedStage("categories", seed); err != nil {
			t.Fatal(err)
		}
		if err := p.SeedStage("nonesuch", &CategoryStage{}); err == nil {
			t.Fatal("seeding an unknown stage succeeded")
		}
		if got := p.Stage("categories"); got != Stage(seed) {
			t.Fatalf("Stage returned %p, not the installed seed %p", got, seed)
		}
		p.Ingest(events)
		p.Close()
		var sum uint64
		for _, n := range seed.Counts {
			sum += n
		}
		if want := 41 + uint64(len(events)); sum != want {
			t.Fatalf("installed stage counts %d sightings, want %d", sum, want)
		}
	})

	t.Run("seed-after-ingest", func(t *testing.T) {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		p.Ingest(events)
		p.Quiesce()
		seed := &CategoryStage{}
		seed.Counts[0] = 41
		if err := p.SeedStage("categories", seed); err == nil {
			t.Fatal("seeding after the worker processed events succeeded")
		}
		if got := p.Stage("categories"); got == Stage(seed) {
			t.Fatal("a refused seed replaced the stage")
		}
	})
}
