package ingest

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"

	"hitlist6/internal/collector"
)

// Checkpointing is the pipeline's durability seam. Each protocol
// writes the merged corpus after a full Quiesce, so the artifact
// provably contains every event flushed before the call:
// CheckpointFile a whole snapshot (see collector.Snapshot),
// CheckpointChain a base and then deltas of the blocks dirtied since.
// Both go through the crash-safe file protocol (AtomicWriteFile) so a
// torn write can never shadow the previous good checkpoint;
// RestoreNewest is the other half, feeding Config.Seed on the next
// start. When to checkpoint is the caller's decision — the pipeline
// runs no checkpoint clock (cmd/ingestd owns the -snapshot.every
// ticker, because a checkpoint there also refreshes the tier file the
// pipeline knows nothing of).

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
// and returns the snapshot's size in bytes. The new file is the whole
// corpus, so delta files next to it (a chain an earlier run wrote) are
// superseded and removed, and a chain this pipeline was extending must
// re-anchor: its deltas were cut against the base just replaced.
func (p *Pipeline) CheckpointFile(path string) (int64, error) {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	start := time.Now()
	size, err := AtomicWriteFile(path, func(w io.Writer) error {
		p.Quiesce()
		return p.store.Snapshot(w)
	})
	if err == nil {
		p.chainBroken = true
		removeChainDeltas(path)
	}
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
// the previous chain's delta files, which its base supersedes (a crash
// before that is RestoreNewest's to clean up).
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

// chainDeltaFiles lists the chain's delta files in sequence order.
// Names that don't parse as a sequence (AtomicWriteFile temp litter from
// a crash) are not part of the chain and are ignored.
func chainDeltaFiles(path string) []chainDelta {
	matches, _ := filepath.Glob(path + ".delta.*")
	files := make([]chainDelta, 0, len(matches))
	for _, m := range matches {
		suffix := m[len(path)+len(".delta."):]
		seq, err := strconv.ParseUint(suffix, 10, 64)
		if err != nil || seq == 0 {
			continue
		}
		files = append(files, chainDelta{seq: seq, path: m})
	}
	slices.SortFunc(files, func(a, b chainDelta) int { return cmp.Compare(a.seq, b.seq) })
	return files
}

type chainDelta struct {
	seq  uint64
	path string
}

// removeChainDeltas best-effort deletes a superseded chain's delta
// files, last first, so a crash part-way leaves a chain without a gap.
// Whatever is left fails its linkage check against the new base and is
// dropped by the next restore (RestoreNewest).
func removeChainDeltas(path string) {
	removeDeltas(chainDeltaFiles(path))
}

func removeDeltas(files []chainDelta) (removed []string) {
	for _, f := range slices.Backward(files) {
		os.Remove(f.path)
		removed = append(removed, f.path)
	}
	return removed
}

// RestoreChainFiles loads a base checkpoint plus its delta chain: the
// restore half of CheckpointChain and, a chain of no deltas being a
// plain file, of CheckpointFile. See RestoreNewest, whose list of
// superseded files it drops.
func RestoreChainFiles(path string) (*collector.Collector, error) {
	c, _, err := RestoreNewest(path)
	return c, err
}

// RestoreNewest restores the newest corpus the files at path hold: the
// base checkpoint with every delta that chains onto it. A missing base
// with no deltas is the empty start (nil, nil, nil). Deltas without a
// base, a gap in the sequence, or a delta that is damaged are errors —
// the chain is not trustworthy and the caller decides whether to start
// empty.
//
// A well-formed delta that was not cut against the state restored so
// far is neither: it is what a crash between a base's rename and the
// removal of the deltas it supersedes leaves behind. The restore stops
// there with everything that did chain, and that delta and those after
// it are removed — left in place, one of them could line up with a
// later chain's sequence numbers — and returned as superseded for the
// caller to log.
func RestoreNewest(path string) (c *collector.Collector, superseded []string, err error) {
	return restoreChain(path, chainDeltaFiles(path))
}

// RestoreFile loads the checkpoint at path alone, whatever delta files
// sit next to it: what CheckpointFile wrote. A missing file is not an
// error — it returns (nil, nil), the empty-start case — while an
// unreadable or corrupt checkpoint returns the error for the caller to
// decide on (daemons log and start empty; batch runs abort).
func RestoreFile(path string) (*collector.Collector, error) {
	c, _, err := restoreChain(path, nil)
	return c, err
}

func restoreChain(path string, deltas []chainDelta) (c *collector.Collector, superseded []string, err error) {
	fail := func(file string, err error) (*collector.Collector, []string, error) {
		return nil, nil, fmt.Errorf("ingest: restore %s: %w", file, err)
	}
	var rs *collector.Restore
	err = readFile(path, func(r io.Reader) (err error) {
		rs, err = collector.NewRestore(r)
		return err
	})
	if errors.Is(err, fs.ErrNotExist) {
		if len(deltas) == 0 {
			return nil, nil, nil
		}
		err = fmt.Errorf("%d delta files but no base checkpoint", len(deltas))
	}
	if err != nil {
		return fail(path, err)
	}
	for i, d := range deltas {
		if d.seq != uint64(i+1) {
			return fail(path, fmt.Errorf("delta %06d missing from a chain of %d", i+1, deltas[len(deltas)-1].seq))
		}
		err := readFile(d.path, rs.ApplyDelta)
		if errors.Is(err, collector.ErrStaleDelta) {
			superseded = removeDeltas(deltas[i:])
			break
		}
		if err != nil {
			return fail(d.path, err)
		}
	}
	if c, err = rs.Collector(); err != nil {
		return fail(path, err)
	}
	return c, superseded, nil
}

// readFile runs read over a buffered reader of the file at path.
func readFile(path string, read func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() // opened read-only: Close has nothing to report
	return read(bufio.NewReaderSize(f, 1<<20))
}
