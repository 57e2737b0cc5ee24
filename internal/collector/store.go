package collector

import (
	"io"
	"sync"
)

// Store is the live corpus of pipeline collection: ingest's worker
// folds each batch into it with Update, one write-lock hold per batch,
// and a restored seed lands with ApplyShard. Readers (HTTP stat
// endpoints, checkpoints, the tier writer) take the read lock and see a
// consistent corpus holding every finished batch; a reader that needs
// IID state builds a Collector.IIDTable inside View.
//
// The Collector itself stays single-writer: Store adds the lock that
// separates the one writer from its readers. Batches land in queue
// order, so slab order — which snapshot, delta and tier files inherit —
// follows the stream.
type Store struct {
	mu sync.RWMutex
	c  *Collector
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{c: New()}
}

// Update runs fn with write access to the corpus: the ingest write
// path, one call per batch. fn must not retain the *Collector.
func (s *Store) Update(fn func(*Collector)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.c)
}

// ApplyShard folds a whole collector — a restored seed, a corpus built
// elsewhere — into the store. The store takes ownership: part must not
// be used again (see Collector.Absorb for the cases).
func (s *Store) ApplyShard(part *Collector) {
	if part == nil {
		return
	}
	s.mu.Lock()
	s.c.Absorb(part)
	s.mu.Unlock()
}

// View runs fn with read access to the corpus. fn must not retain the
// *Collector or mutate it; writes go through Update and ApplyShard.
func (s *Store) View(fn func(*Collector)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(s.c)
}

// NumAddrs returns the unique-address count.
func (s *Store) NumAddrs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c.NumAddrs()
}

// MemoryFootprint estimates the corpus's resident bytes (see
// Collector.MemoryFootprint): the number stat endpoints export as
// corpus_bytes.
func (s *Store) MemoryFootprint() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c.MemoryFootprint()
}

// Snapshot writes the corpus's durable encoding (see
// Collector.Snapshot) under the read lock: writers are held off for the
// duration, readers proceed. This is the daemon checkpoint path — pair
// it with OpenSnapshot and ApplyShard (or ingest.Config.Seed) to
// restore on the next start.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c.Snapshot(w)
}

// CheckpointFull writes a full snapshot and advances the delta-chain
// watermark to sequence 0, atomically with respect to Update: the
// write lock is held across both, so no observation can land between
// the bytes and the mark and silently escape the next delta. The caller
// must make the bytes durable before relying on the chain (the ingest
// layer writes through AtomicWriteFile).
//
//lint:durable-path full checkpoints anchor the delta chain
func (s *Store) CheckpointFull(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.c.Snapshot(w); err != nil {
		return err
	}
	s.c.MarkCheckpointedFull()
	return nil
}

// CheckpointDelta writes the blocks dirtied since the last checkpoint
// and advances the chain sequence, under the same write-lock atomicity
// as CheckpointFull. It fails if no base checkpoint exists; on write
// error the watermark does not advance, so the caller can fall back to
// a full checkpoint without losing anything.
//
//lint:durable-path delta checkpoints extend the chain
func (s *Store) CheckpointDelta(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.c.SnapshotDelta(w); err != nil {
		return err
	}
	s.c.MarkCheckpointedDelta()
	return nil
}

// CheckpointSeq returns the corpus's checkpoint chain position
// (see Collector.CheckpointSeq).
func (s *Store) CheckpointSeq() (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c.CheckpointSeq()
}

// Detach returns the Collector and resets the store to empty. It
// is how a finished ingest run hands the corpus to the (single-threaded)
// analysis layer without copying: after Detach the caller owns the
// Collector exclusively.
func (s *Store) Detach() *Collector {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.c
	s.c = New()
	return c
}
