package pager

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/snapfmt"
	"hitlist6/internal/telemetry"
)

// Metrics is the pager's instrumentation, injectable so one registry
// registration can be shared across corpus reopens (telemetry
// registries reject re-registration with conflicting help text, and a
// daemon reopens its corpus on every full checkpoint). Every file of a
// corpus — base and runs — reports into the same series.
type Metrics struct {
	Resident    *telemetry.Gauge
	Cold        *telemetry.Gauge
	Probes      *telemetry.Counter
	Skips       *telemetry.Counter
	Loads       *telemetry.Counter
	LoadSeconds *telemetry.Histogram
}

// NewMetrics registers the pager metric family on reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Resident: reg.Gauge("corpus_chunks_resident",
			"Corpus chunks currently resident in RAM."),
		Cold: reg.Gauge("corpus_chunks_cold",
			"Corpus chunks currently cold on the tier file."),
		Probes: reg.Counter("corpus_filter_probes_total",
			"Per-chunk filter evaluations by point lookups."),
		Skips: reg.Counter("corpus_filter_skips_total",
			"Chunk loads avoided by the key fence or bloom filter."),
		Loads: reg.Counter("corpus_chunk_loads_total",
			"Cold chunk loads off the tier file."),
		LoadSeconds: reg.Histogram("corpus_chunk_load_seconds",
			"Latency of one cold chunk load (pread + CRC + install).",
			telemetry.DurationBuckets()),
	}
}

// Options configures Open.
type Options struct {
	// RAMBudget bounds the resident chunk payload bytes of every file of
	// the corpus together; 0 or negative means unlimited (every loaded
	// chunk stays). The budget is a high-water mark for the cache: one
	// chunk may transiently exceed it during a load, and the most
	// recently used chunk is never evicted.
	RAMBudget int64
	// Metrics receives the pager's instrumentation; nil means unregistered
	// (a private throwaway registry).
	Metrics *Metrics
}

// dirEntry is one chunk's resident directory state: record count, key
// -range fence, bloom filter, and the file offset of its section
// header.
type dirEntry struct {
	n        uint32
	min, max addr.Addr
	bloom    []uint64
	off      int64
}

// tierFile is one file of a corpus, the base or a run: its meta, its
// resident directory, and the cache id of its first chunk (a corpus
// numbers the chunks of all its files in one sequence).
type tierFile struct {
	f     *os.File
	total uint64
	addrN int
	dir   []dirEntry
	first int
}

// Corpus is a tier opened for point lookups: a base file and the runs
// attached to it since, with chunks paged in on demand and held under
// one Options.RAMBudget across every file. All methods are safe for
// concurrent use.
type Corpus struct {
	budget int64
	met    *Metrics

	// files is the base followed by the runs, oldest first. attach
	// publishes a new slice under mu; Get reads whichever slice is
	// current without taking mu.
	files atomic.Pointer[[]*tierFile]

	mu            sync.Mutex
	chunks        int // chunks over every file: the cache's id space
	res           map[int][]byte
	lruPrev       []int32
	lruNext       []int32
	lruHead       int32
	lruTail       int32
	residentBytes int64
	inflight      map[int]*inflightLoad
}

type inflightLoad struct {
	done    chan struct{}
	payload []byte
	err     error
}

var tierCRC = crc32.MakeTable(crc32.Castagnoli)

// countReader counts the bytes its inner reader hands out; snapfmt
// reads exactly its own bytes, so the count IS the stream offset.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Open opens a tier file as the base of a corpus. Only the resident
// sections — meta and directory — are read; chunk offsets are derived
// from the directory's record counts, so opening a corpus far larger
// than RAM touches none of its chunk data.
func Open(path string, o Options) (*Corpus, error) {
	tf, err := openTierFile(path)
	if err != nil {
		return nil, err
	}
	met := o.Metrics
	if met == nil {
		met = NewMetrics(telemetry.NewRegistry())
	}
	c := &Corpus{
		budget:   o.RAMBudget,
		met:      met,
		res:      make(map[int][]byte),
		lruHead:  -1,
		lruTail:  -1,
		inflight: make(map[int]*inflightLoad),
	}
	c.files.Store(&[]*tierFile{})
	c.attach(tf)
	return c, nil
}

// AddRun opens the tier file at path — a run, the same format as a base
// (see WriteTier) — and puts it in front of every file the corpus
// holds: from its return on, a Get of a key the run holds answers from
// the run. Resident chunks stay resident, and a Get running meanwhile
// sees the corpus either with the run or without it.
func (c *Corpus) AddRun(path string) error {
	tf, err := openTierFile(path)
	if err != nil {
		return err
	}
	c.attach(tf)
	return nil
}

// attach numbers tf's chunks after every chunk the corpus has and
// publishes tf as its newest file.
func (c *Corpus) attach(tf *tierFile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tf.first = c.chunks
	c.chunks += len(tf.dir)
	c.lruPrev = append(c.lruPrev, make([]int32, len(tf.dir))...)
	c.lruNext = append(c.lruNext, make([]int32, len(tf.dir))...)
	files := *c.files.Load()
	next := append(files[:len(files):len(files)], tf)
	c.files.Store(&next)
	c.setGauges()
}

func openTierFile(path string) (*tierFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	tf, err := readTierFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return tf, nil
}

// readTierFile reads and validates one file's meta and directory.
func readTierFile(f *os.File) (*tierFile, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	fileSize := st.Size()

	cr := &countReader{r: bufio.NewReaderSize(io.NewSectionReader(f, 0, fileSize), 1<<20)}
	sr, err := snapfmt.NewReader(cr, tierMagic)
	if err != nil {
		return nil, fmt.Errorf("pager: %w", err)
	}
	if v := sr.Version(); v != tierVersion {
		return nil, fmt.Errorf("pager: tier version %d unsupported (have %d)", v, tierVersion)
	}

	if _, err := sr.Expect(secTierMeta, tierMetaWire); err != nil {
		return nil, fmt.Errorf("pager: tier: %w", err)
	}
	var meta [tierMetaWire]byte
	if _, err := io.ReadFull(sr, meta[:]); err != nil {
		return nil, fmt.Errorf("pager: tier meta: %w", err)
	}
	if err := sr.End(); err != nil {
		return nil, fmt.Errorf("pager: tier meta: %w", err)
	}
	total := binary.BigEndian.Uint64(meta[0:])
	addrN := binary.BigEndian.Uint64(meta[8:])
	chunkRecs := binary.BigEndian.Uint32(meta[16:])
	chunkCount := binary.BigEndian.Uint32(meta[20:])

	if chunkRecs == 0 {
		return nil, fmt.Errorf("pager: tier declares zero-record chunks")
	}
	// Every record costs at least tierRecWire bytes on the file; a meta
	// that declares more than the file could hold is damage, and bounding
	// here bounds every allocation below.
	if addrN > uint64(fileSize)/tierRecWire {
		return nil, fmt.Errorf("pager: tier declares %d records in a %d-byte file", addrN, fileSize)
	}
	wantChunks := (addrN + uint64(chunkRecs) - 1) / uint64(chunkRecs)
	if uint64(chunkCount) != wantChunks {
		return nil, fmt.Errorf("pager: tier declares %d chunks for %d records of %d", chunkCount, addrN, chunkRecs)
	}

	// Directory. Each entry's shape is validated as it streams in; the
	// fences must be internally ordered and disjoint ascending across
	// chunks, every chunk but the last exactly full.
	if _, err := sr.Expect(secTierDir, snapfmt.AnySize); err != nil {
		return nil, fmt.Errorf("pager: tier directory: %w", err)
	}
	dir := make([]dirEntry, 0, min(int(chunkCount), 1<<16))
	var fixed [tierDirFixed]byte
	var sum uint64
	for i := uint32(0); i < chunkCount; i++ {
		if _, err := io.ReadFull(sr, fixed[:]); err != nil {
			return nil, fmt.Errorf("pager: tier directory: %w", err)
		}
		var d dirEntry
		d.n = binary.BigEndian.Uint32(fixed[0:])
		copy(d.min[:], fixed[4:20])
		copy(d.max[:], fixed[20:36])
		words := binary.BigEndian.Uint32(fixed[36:])
		if d.n == 0 || d.n > chunkRecs || uint64(d.n) > addrN {
			return nil, fmt.Errorf("pager: tier chunk %d holds %d records of %d", i, d.n, chunkRecs)
		}
		if i < chunkCount-1 && d.n != chunkRecs {
			return nil, fmt.Errorf("pager: tier chunk %d is short (%d of %d) before the last", i, d.n, chunkRecs)
		}
		if d.max.Less(d.min) {
			return nil, fmt.Errorf("pager: tier chunk %d fence inverted", i)
		}
		if i > 0 && !dir[i-1].max.Less(d.min) {
			return nil, fmt.Errorf("pager: tier chunk %d fence overlaps its predecessor", i)
		}
		if words != bloomWords(int(d.n)) {
			return nil, fmt.Errorf("pager: tier chunk %d bloom is %d words for %d records", i, words, d.n)
		}
		d.bloom = make([]uint64, words)
		for w := range d.bloom {
			if _, err := io.ReadFull(sr, fixed[:8]); err != nil {
				return nil, fmt.Errorf("pager: tier directory: %w", err)
			}
			d.bloom[w] = binary.BigEndian.Uint64(fixed[:8])
		}
		sum += uint64(d.n)
		dir = append(dir, d)
	}
	if err := sr.End(); err != nil {
		return nil, fmt.Errorf("pager: tier directory: %w", err)
	}
	if sum != addrN {
		return nil, fmt.Errorf("pager: tier directory counts sum to %d, meta declares %d", sum, addrN)
	}

	// Chunk offsets are arithmetic from here; the end marker must land
	// exactly at the end of the file.
	off := cr.n
	for i := range dir {
		dir[i].off = off
		off += tierSectionOverhead + chunkPayloadSize(dir[i].n)
	}
	if off+12 != fileSize {
		return nil, fmt.Errorf("pager: tier is %d bytes, chunks end at %d", fileSize, off)
	}
	return &tierFile{f: f, total: total, addrN: int(addrN), dir: dir}, nil
}

// Close releases every file of the corpus. Outstanding readers must be
// done.
func (c *Corpus) Close() error {
	var errs []error
	for _, tf := range *c.files.Load() {
		errs = append(errs, tf.f.Close())
	}
	return errors.Join(errs...)
}

// base returns the corpus's base file.
func (c *Corpus) base() *tierFile { return (*c.files.Load())[0] }

// NumAddrs returns the base file's unique address count. Runs hold
// addresses the base holds too, so no sum over files counts a corpus
// with runs; its writer knows the count.
func (c *Corpus) NumAddrs() int { return c.base().addrN }

// TotalObservations returns the raw sighting count the base file was
// written at.
func (c *Corpus) TotalObservations() uint64 { return c.base().total }

// NumRuns returns how many runs are attached to the base.
func (c *Corpus) NumRuns() int { return len(*c.files.Load()) - 1 }

// NumChunks returns the chunk count over every file.
func (c *Corpus) NumChunks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chunks
}

// ResidentChunks returns how many chunks are currently resident.
func (c *Corpus) ResidentChunks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.res)
}

// ResidentBytes returns the resident chunk payload bytes.
func (c *Corpus) ResidentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.residentBytes
}

// setGauges publishes the residency split; callers hold c.mu.
func (c *Corpus) setGauges() {
	c.met.Resident.Set(int64(len(c.res)))
	c.met.Cold.Set(int64(c.chunks - len(c.res)))
}

// ---- LRU cache ----

func (c *Corpus) lruUnlink(i int) {
	p, n := c.lruPrev[i], c.lruNext[i]
	if p >= 0 {
		c.lruNext[p] = n
	} else {
		c.lruHead = n
	}
	if n >= 0 {
		c.lruPrev[n] = p
	} else {
		c.lruTail = p
	}
}

func (c *Corpus) lruPushFront(i int) {
	c.lruPrev[i] = -1
	c.lruNext[i] = c.lruHead
	if c.lruHead >= 0 {
		c.lruPrev[c.lruHead] = int32(i)
	}
	c.lruHead = int32(i)
	if c.lruTail < 0 {
		c.lruTail = int32(i)
	}
}

// evictLocked drops least-recently-used chunks until the budget holds,
// never evicting the last resident chunk. Eviction only drops the
// cache's reference — readers that already hold a payload slice keep it
// alive until they are done, so no load/evict race can hand out freed
// memory.
func (c *Corpus) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for c.residentBytes > c.budget && len(c.res) > 1 {
		victim := int(c.lruTail)
		c.lruUnlink(victim)
		c.residentBytes -= int64(len(c.res[victim]))
		delete(c.res, victim)
	}
}

// chunk returns chunk ci of tf, loading it off the file if cold.
// Concurrent requests for the same cold chunk coalesce into one read.
func (c *Corpus) chunk(tf *tierFile, ci int) ([]byte, error) {
	id := tf.first + ci
	c.mu.Lock()
	if p, ok := c.res[id]; ok {
		c.lruUnlink(id)
		c.lruPushFront(id)
		c.mu.Unlock()
		return p, nil
	}
	if fl, ok := c.inflight[id]; ok {
		c.mu.Unlock()
		<-fl.done
		return fl.payload, fl.err
	}
	fl := &inflightLoad{done: make(chan struct{})}
	c.inflight[id] = fl
	c.mu.Unlock()

	p, err := c.readChunk(tf, ci)

	c.mu.Lock()
	delete(c.inflight, id)
	if err == nil {
		if _, ok := c.res[id]; !ok {
			c.res[id] = p
			c.residentBytes += int64(len(p))
			c.lruPushFront(id)
			c.evictLocked()
		}
		c.setGauges()
	}
	c.mu.Unlock()

	fl.payload, fl.err = p, err
	close(fl.done)
	return p, err
}

// readChunk preads and verifies one chunk section: header shape, then
// CRC-32C over the payload against the trailer. Damage is an error,
// never a partial payload.
func (c *Corpus) readChunk(tf *tierFile, ci int) ([]byte, error) {
	start := time.Now()
	d := &tf.dir[ci]
	payload := chunkPayloadSize(d.n)
	buf := make([]byte, tierSectionOverhead+payload)
	if _, err := tf.f.ReadAt(buf, d.off); err != nil {
		return nil, fmt.Errorf("pager: chunk %d: %w", ci, err)
	}
	if id := binary.BigEndian.Uint32(buf[0:]); id != secTierChunk {
		return nil, fmt.Errorf("pager: chunk %d: section id %d", ci, id)
	}
	if size := binary.BigEndian.Uint64(buf[4:]); size != uint64(payload) {
		return nil, fmt.Errorf("pager: chunk %d: declared %d bytes, directory says %d", ci, size, payload)
	}
	p := buf[12 : 12+payload]
	want := binary.BigEndian.Uint32(buf[12+payload:])
	if got := crc32.Checksum(p, tierCRC); got != want {
		return nil, fmt.Errorf("pager: chunk %d: crc %08x, want %08x", ci, got, want)
	}
	c.met.Loads.Inc()
	c.met.LoadSeconds.ObserveDuration(time.Since(start))
	return p, nil
}

// ---- point lookups ----

// Get returns the record for an address from the newest file that holds
// it: runs newest first, then the base. A run carries every record its
// delta dirtied, so the newest holder has the freshest value. The
// address is hashed once; each file then costs a fence search and a
// bloom probe, and a chunk load only when both admit the key.
func (c *Corpus) Get(a addr.Addr) (collector.AddrRecord, bool, error) {
	h := a.Hash64()
	files := *c.files.Load()
	for i := len(files) - 1; i >= 0; i-- {
		if rec, ok, err := c.getIn(files[i], a, h); ok || err != nil {
			return rec, ok, err
		}
	}
	return collector.AddrRecord{}, false, nil
}

// getIn looks a (hashing to h) up in one file without loading any chunk
// the filters can rule out: the fence search names the only chunk whose
// key range could hold a, and its bloom filter then vetoes the load for
// almost every absent key.
func (c *Corpus) getIn(tf *tierFile, a addr.Addr, h uint64) (collector.AddrRecord, bool, error) {
	ci := sort.Search(len(tf.dir), func(i int) bool { return !tf.dir[i].max.Less(a) })
	c.met.Probes.Inc()
	if ci == len(tf.dir) || a.Less(tf.dir[ci].min) || !bloomHas(tf.dir[ci].bloom, h) {
		c.met.Skips.Inc()
		return collector.AddrRecord{}, false, nil
	}
	p, err := c.chunk(tf, ci)
	if err != nil {
		return collector.AddrRecord{}, false, err
	}
	n := int(tf.dir[ci].n)
	j := sort.Search(n, func(j int) bool {
		return bytes.Compare(p[j*tierRecWire:j*tierRecWire+16], a[:]) >= 0
	})
	if j == n || !bytes.Equal(p[j*tierRecWire:j*tierRecWire+16], a[:]) {
		return collector.AddrRecord{}, false, nil
	}
	_, rec := collector.DecodeAddrRecord(p[j*tierRecWire : (j+1)*tierRecWire])
	return rec, true, nil
}
