package ingest

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hitlist6/internal/addr"
)

func feedSlice(t *testing.T, p *Pipeline, events []Event) {
	t.Helper()
	b := p.NewBatcher()
	for _, ev := range events {
		b.Add(ev)
	}
	b.Flush()
}

// TestCheckpointChain drives the delta-chain file protocol end to end:
// a full anchor, deltas that stay an order of magnitude smaller, chain
// restore equivalence, compaction back to a full base, and the failure
// modes restore must reject (gap, corruption, orphaned deltas).
func TestCheckpointChain(t *testing.T) {
	events := testEvents(t, 0.03, 12)
	path := filepath.Join(t.TempDir(), "corpus.snap")

	cfg := DefaultConfig()
	cfg.CompactEvery = 3
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// No base yet: the first chain checkpoint is a full anchor.
	feedSlice(t, p, events[:len(events)/2])
	baseSize, err := p.CheckpointChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if m := p.Metrics(); m.Checkpoints != 1 || m.DeltaCheckpoints != 0 || m.ChainSeq != 0 {
		t.Fatalf("after anchor: %+v", m)
	}

	// Each feed extends the chain with a delta file. (The size win is
	// asserted in TestCheckpointChainDeltaSize on a corpus large enough
	// for block granularity to matter; this corpus is a handful of dirty
	// blocks total.)
	step := len(events) / 20
	half := len(events) / 2
	for i := 0; i < 2; i++ {
		feedSlice(t, p, events[half+i*step:half+(i+1)*step])
		deltaSize, err := p.CheckpointChain(path)
		if err != nil {
			t.Fatal(err)
		}
		if deltaSize <= 0 || deltaSize > baseSize*2 {
			t.Fatalf("delta %d is %d bytes against a %d-byte base", i+1, deltaSize, baseSize)
		}
		if _, err := os.Stat(deltaPath(path, uint64(i+1))); err != nil {
			t.Fatalf("delta file %d: %v", i+1, err)
		}
	}
	if m := p.Metrics(); m.Checkpoints != 3 || m.DeltaCheckpoints != 2 || m.ChainSeq != 2 {
		t.Fatalf("after deltas: %+v", m)
	}

	// The chain restores to exactly the checkpointed corpus.
	restored, err := RestoreChainFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Checksum() != storeChecksum(p.Store()) {
		t.Fatal("chain restore diverges from the live corpus")
	}

	// The third delta reaches CompactEvery: the next checkpoint folds the
	// chain into a fresh full base and removes the delta files.
	feedSlice(t, p, events[half+2*step:half+3*step])
	if _, err := p.CheckpointChain(path); err != nil {
		t.Fatal(err)
	}
	feedSlice(t, p, events[half+3*step:half+4*step])
	if _, err := p.CheckpointChain(path); err != nil {
		t.Fatal(err)
	}
	if m := p.Metrics(); m.ChainSeq != 0 {
		t.Fatalf("compaction did not reset the chain: %+v", m)
	}
	if ds := chainDeltaFiles(path); len(ds) != 0 {
		t.Fatalf("compaction left delta files: %v", ds)
	}
	restored, err = RestoreChainFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Checksum() != storeChecksum(p.Store()) {
		t.Fatal("post-compaction restore diverges from the live corpus")
	}

	// Rebuild a two-delta chain to break in various ways.
	for i := 0; i < 2; i++ {
		feedSlice(t, p, events[half+(4+i)*step:half+(5+i)*step])
		if _, err := p.CheckpointChain(path); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()

	// A gap in the sequence is an error, not a silent partial restore.
	d1 := deltaPath(path, 1)
	moved := d1 + ".aside"
	if err := os.Rename(d1, moved); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreChainFiles(path); err == nil {
		t.Fatal("restore accepted a chain with a missing delta")
	}
	if err := os.Rename(moved, d1); err != nil {
		t.Fatal(err)
	}

	// A corrupted delta is rejected.
	raw, err := os.ReadFile(d1)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(d1, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreChainFiles(path); err == nil {
		t.Fatal("restore accepted a corrupted delta")
	}
	if err := os.WriteFile(d1, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreChainFiles(path); err != nil {
		t.Fatalf("pristine chain no longer restores: %v", err)
	}

	// Deltas without their base are unrecoverable state, not empty-start.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreChainFiles(path); err == nil {
		t.Fatal("restore accepted orphaned deltas")
	}
	removeChainDeltas(path)
	if c, err := RestoreChainFiles(path); err != nil || c != nil {
		t.Fatalf("clean slate: got (%v, %v), want (nil, nil)", c, err)
	}
}

// TestRestoreDropsSupersededChain is the crash window between a
// compaction's base rename and the removal of the deltas it supersedes:
// the new base is on disk next to the old chain's delta files. Those
// deltas were cut against a state the base has left behind; restore
// must come back with the new base's corpus, name the leftovers and
// remove them — not fail, which would start the daemon empty and let
// its next checkpoint overwrite the good base.
func TestRestoreDropsSupersededChain(t *testing.T) {
	events := testEvents(t, 0.03, 12)
	third := len(events) / 3
	path := filepath.Join(t.TempDir(), "corpus.snap")
	cfg := DefaultConfig()
	cfg.CompactEvery = 2
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Base, deltas 1 and 2, then the compaction that folds them in.
	checkpoint := func(part []Event) {
		t.Helper()
		feedSlice(t, p, part)
		if _, err := p.CheckpointChain(path); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint(events[:third])
	checkpoint(events[third : third+100])
	checkpoint(events[third+100 : third+200])
	old := map[string][]byte{}
	for _, d := range chainDeltaFiles(path) {
		if old[d.path], err = os.ReadFile(d.path); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint(events[third+200:])
	if len(old) != 2 || len(chainDeltaFiles(path)) != 0 {
		t.Fatalf("setup: %d old deltas saved, %d left after compaction", len(old), len(chainDeltaFiles(path)))
	}
	want := storeChecksum(p.Store())

	// The crash: the base made it, the removal did not.
	for name, body := range old {
		if err := os.WriteFile(name, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, superseded, err := RestoreNewest(path)
	if err != nil {
		t.Fatalf("restore over a superseded chain: %v", err)
	}
	if c.Checksum() != want {
		t.Fatal("restore over a superseded chain diverges from the compacted corpus")
	}
	if len(superseded) != 2 || len(chainDeltaFiles(path)) != 0 {
		t.Fatalf("superseded = %v, %d delta files left", superseded, len(chainDeltaFiles(path)))
	}

	// With the leftovers gone the next restore has nothing to report.
	c, superseded, err = RestoreNewest(path)
	if err != nil || len(superseded) != 0 || c.Checksum() != want {
		t.Fatalf("second restore: %v, superseded %v", err, superseded)
	}
}

// TestCheckpointFileSupersedesChain: a plain checkpoint over a chain's
// base leaves no delta behind, and a pipeline that goes back to the
// chain protocol re-anchors instead of cutting a delta against the base
// it replaced.
func TestCheckpointFileSupersedesChain(t *testing.T) {
	events := testEvents(t, 0.02, 6)
	half := len(events) / 2
	path := filepath.Join(t.TempDir(), "corpus.snap")
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, part := range [][]Event{events[:half], events[half : half+50]} {
		feedSlice(t, p, part)
		if _, err := p.CheckpointChain(path); err != nil {
			t.Fatal(err)
		}
	}
	if len(chainDeltaFiles(path)) != 1 {
		t.Fatal("setup: no delta written")
	}
	feedSlice(t, p, events[half+50:half+100])
	if _, err := p.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	if left := chainDeltaFiles(path); len(left) != 0 {
		t.Fatalf("plain checkpoint left delta files: %v", left)
	}
	feedSlice(t, p, events[half+100:])
	if _, err := p.CheckpointChain(path); err != nil {
		t.Fatal(err)
	}
	if m := p.Metrics(); m.ChainSeq != 0 || len(chainDeltaFiles(path)) != 0 {
		t.Fatalf("chain checkpoint after a plain one did not re-anchor: seq %d", m.ChainSeq)
	}
	c, superseded, err := RestoreNewest(path)
	if err != nil || len(superseded) != 0 {
		t.Fatalf("restore: %v, superseded %v", err, superseded)
	}
	if c.Checksum() != storeChecksum(p.Store()) {
		t.Fatal("restore diverges from the live corpus")
	}
}

// TestCheckpointChainDeltaSize is the size-ratio acceptance bar at the
// pipeline level: on a corpus spanning many dirty-tracking blocks, a
// checkpoint after touching a small contiguous slice of it must be at
// least 10x smaller than the full base. The one worker keeps the
// store's record order equal to feed order, so the touched records stay
// in one block.
func TestCheckpointChainDeltaSize(t *testing.T) {
	const n = 60000
	mk := func(i int) Event {
		h := uint64(i) * 0x9e3779b97f4a7c15
		h ^= h >> 29
		return Event{
			Addr:   addr.FromParts(0x20010db8<<32|uint64(i>>8), h|1),
			Time:   int64(1_600_000_000 + i),
			Server: int32(i % 4),
		}
	}
	path := filepath.Join(t.TempDir(), "corpus.snap")
	cfg := DefaultConfig()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	events := make([]Event, n)
	for i := range events {
		events[i] = mk(i)
	}
	feedSlice(t, p, events)
	baseSize, err := p.CheckpointChain(path)
	if err != nil {
		t.Fatal(err)
	}

	// Re-observe the first 300 addresses: one dirty block out of ~15.
	touch := make([]Event, 300)
	for i := range touch {
		touch[i] = mk(i)
		touch[i].Time += 3600
	}
	feedSlice(t, p, touch)
	deltaSize, err := p.CheckpointChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if deltaSize*10 > baseSize {
		t.Fatalf("delta is %d bytes against a %d-byte base, want >= 10x smaller", deltaSize, baseSize)
	}
	restored, err := RestoreChainFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Checksum() != storeChecksum(p.Store()) {
		t.Fatal("chain restore diverges from the live corpus")
	}
}

// TestCheckpointFilesReproducible: one producer feeding the same stream
// into two fresh pipelines must leave byte-identical checkpoint files —
// a full file, then a chain base and one delta. The worker folds
// batches in queue order, so the corpus's slab order, which every file
// inherits, follows the stream alone and not the scheduler.
func TestCheckpointFilesReproducible(t *testing.T) {
	events := testEvents(t, 0.02, 6)
	split := len(events) * 2 / 3
	write := func(dir string) map[string][]byte {
		p, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		p.Ingest(events[:split])
		if _, err := p.CheckpointFile(filepath.Join(dir, "corpus.snap")); err != nil {
			t.Fatal(err)
		}
		chain := filepath.Join(dir, "chain.snap")
		if _, err := p.CheckpointChain(chain); err != nil {
			t.Fatal(err)
		}
		p.Ingest(events[split:])
		if _, err := p.CheckpointChain(chain); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte, len(entries))
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = b
		}
		return files
	}
	first, second := write(t.TempDir()), write(t.TempDir())
	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("wrote %d and %d files, want 3 each: a full file, a chain base and one delta", len(first), len(second))
	}
	for name, want := range first {
		if got, ok := second[name]; !ok {
			t.Errorf("%s written by the first ingest only", name)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s differs between two ingests of one stream (%d and %d bytes)", name, len(want), len(got))
		}
	}
}
