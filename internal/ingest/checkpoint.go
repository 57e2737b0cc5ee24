package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"hitlist6/internal/collector"
)

// Checkpointing is the pipeline's durability seam: Checkpoint writes
// the merged corpus's snapshot (see collector.Snapshot) after a full
// Quiesce, so the artifact provably contains every event flushed before
// the call; CheckpointFile adds the crash-safe file protocol (write to
// a temp file in the same directory, fsync, rename, fsync the
// directory) so a torn write can never shadow the previous good
// checkpoint; RestoreFile is the other half, feeding Config.Seed on the
// next start. When to checkpoint is the caller's decision — the
// pipeline runs no checkpoint clock (cmd/ingestd owns the
// -snapshot.every ticker, because a checkpoint there also refreshes the
// tier file the pipeline knows nothing of).

// Checkpoint quiesces the pipeline and writes the merged corpus
// snapshot to w. Must not race with Close.
func (p *Pipeline) Checkpoint(w *bufio.Writer) error {
	p.Quiesce()
	if err := p.store.Snapshot(w); err != nil {
		return err
	}
	return w.Flush()
}

// AtomicWriteFile writes a file via the crash-safe protocol every
// durable artifact in this codebase shares: a temp file in the target's
// directory (so the rename is same-filesystem and atomic), buffered
// writes, flush, fsync, close, rename, then fsync of the directory —
// without the last step the rename itself can be lost with the power,
// taking a checkpoint already reported durable with it. On an error up
// to and including the rename the previous file at path — the last good
// checkpoint — is untouched; on a directory-sync error the new file is
// complete and in place but not yet known durable. Returns the bytes
// written. The daemon's tier file goes through it too; keep
// crash-safety fixes here, in the one copy.
func AtomicWriteFile(path string, write func(w io.Writer) error) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds

	bw := bufio.NewWriterSize(tmp, 1<<20)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	size := int64(0)
	if fi, statErr := tmp.Stat(); statErr == nil {
		size = fi.Size()
	}
	if closeErr := tmp.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return 0, fmt.Errorf("sync directory: %w", err)
	}
	return size, nil
}

// syncDir fsyncs a directory, making renames inside it durable. A
// variable so tests can count the call and inject a failure.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // opened read-only: Close has nothing to report
	err = d.Sync()
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		// This filesystem cannot sync a directory handle; the rename is
		// as durable as it will get.
		return nil
	}
	return err
}

// CheckpointFile checkpoints to path atomically (see AtomicWriteFile)
// and returns the snapshot's size in bytes.
func (p *Pipeline) CheckpointFile(path string) (int64, error) {
	start := time.Now()
	size, err := AtomicWriteFile(path, func(w io.Writer) error {
		p.Quiesce()
		return p.store.Snapshot(w)
	})
	return p.recordCheckpoint(start, path, size, err)
}

// recordCheckpoint is the bookkeeping both checkpoint protocols end
// with. A failure is counted — whoever drove the attempt, so a full
// disk shows on the stats endpoint — and wrapped with the file it was
// for; a success feeds the duration and bytes histograms, the
// distributions an operator watches to size the checkpoint cadence
// against the write stall it buys.
func (p *Pipeline) recordCheckpoint(start time.Time, target string, size int64, err error) (int64, error) {
	if err != nil {
		p.metrics.checkpointErrors.Add(1)
		return 0, fmt.Errorf("ingest: checkpoint %s: %w", target, err)
	}
	p.metrics.checkpoints.Add(1)
	p.metrics.lastCheckpointUnix.Set(time.Now().Unix())
	p.metrics.lastCheckpointBytes.Set(size)
	p.tel.checkpointTime.ObserveDuration(time.Since(start))
	p.tel.checkpointVolume.Observe(float64(size))
	return size, nil
}

// deltaPath names the chain file carrying delta sequence seq.
func deltaPath(base string, seq uint64) string {
	return fmt.Sprintf("%s.delta.%06d", base, seq)
}

// CheckpointChain writes one checkpoint in the delta-chain protocol: a
// full snapshot to path when the chain needs (re)anchoring — no base
// yet, a previous write left the watermark ahead of the disk, or
// Config.CompactEvery deltas have accumulated — and otherwise only the
// record blocks dirtied since the last checkpoint, to
// path.delta.NNNNNN. Every file goes through AtomicWriteFile, so a torn
// write never shadows an earlier good one; a full checkpoint deletes
// the previous chain's delta files, which its base supersedes.
//
//lint:durable-path the chain protocol is what a crashed daemon restarts from
func (p *Pipeline) CheckpointChain(path string) (int64, error) {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	start := time.Now()

	seq, based := p.store.CheckpointSeq()
	full := !based || p.chainBroken || seq >= uint64(p.cfg.CompactEvery)

	// marked tracks whether the corpus watermark advanced inside the
	// write: if it did and the file still failed (flush, fsync, rename),
	// the in-memory chain position is ahead of the disk and only a fresh
	// full checkpoint can re-anchor it.
	marked := false
	target := path
	write := func(w io.Writer) error {
		p.Quiesce()
		var err error
		if full {
			err = p.store.CheckpointFull(w)
		} else {
			err = p.store.CheckpointDelta(w)
		}
		if err == nil {
			marked = true
		}
		return err
	}
	if !full {
		target = deltaPath(path, seq+1)
	}
	size, err := AtomicWriteFile(target, write)
	switch {
	case err != nil:
		if marked {
			p.chainBroken = true
		}
	case full:
		p.chainBroken = false
		removeChainDeltas(path)
	default:
		p.metrics.deltaCheckpoints.Add(1)
	}
	return p.recordCheckpoint(start, target, size, err)
}

// chainDeltaFiles maps delta sequence numbers to their files. Names
// that don't parse as a sequence (AtomicWriteFile temp litter from a
// crash) are not part of the chain and are ignored.
func chainDeltaFiles(path string) map[uint64]string {
	matches, _ := filepath.Glob(path + ".delta.*")
	files := make(map[uint64]string, len(matches))
	for _, m := range matches {
		suffix := m[len(path)+len(".delta."):]
		seq, err := strconv.ParseUint(suffix, 10, 64)
		if err != nil || seq == 0 {
			continue
		}
		files[seq] = m
	}
	return files
}

// removeChainDeltas best-effort deletes a superseded chain's delta
// files. A leftover is harmless: restore validates every delta against
// its parent, and a stale one fails that check instead of applying.
func removeChainDeltas(path string) {
	for _, f := range chainDeltaFiles(path) {
		os.Remove(f)
	}
}

// RestoreChainFiles loads a base checkpoint plus its delta chain: the
// restore half of CheckpointChain. Like RestoreFile, a missing base
// with no deltas is the empty start (nil, nil); deltas without a base,
// a gap in the sequence, or a delta that fails validation are errors —
// the chain is not trustworthy and the caller decides whether to start
// empty.
func RestoreChainFiles(path string) (*collector.Collector, error) {
	deltas := chainDeltaFiles(path)
	c, err := RestoreFile(path)
	if err != nil {
		return nil, err
	}
	if c == nil {
		if len(deltas) > 0 {
			return nil, fmt.Errorf("ingest: restore %s: %d delta files but no base checkpoint", path, len(deltas))
		}
		return nil, nil
	}
	maxSeq := uint64(0)
	for seq := range deltas {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	for seq := uint64(1); seq <= maxSeq; seq++ {
		dp, ok := deltas[seq]
		if !ok {
			return nil, fmt.Errorf("ingest: restore %s: delta %06d missing from a chain of %d", path, seq, maxSeq)
		}
		f, err := os.Open(dp)
		if err != nil {
			return nil, fmt.Errorf("ingest: restore %s: %w", dp, err)
		}
		err = c.ApplyDelta(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("ingest: restore %s: %w", dp, err)
		}
	}
	return c, nil
}

// RestoreFile loads a checkpoint written by CheckpointFile. A missing
// file is not an error — it returns (nil, nil), the empty-start case —
// while an unreadable or corrupt checkpoint returns the error for the
// caller to decide on (daemons log and start empty; batch runs abort).
func RestoreFile(path string) (*collector.Collector, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: restore %s: %w", path, err)
	}
	defer f.Close()
	c, err := collector.OpenSnapshot(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("ingest: restore %s: %w", path, err)
	}
	return c, nil
}
