package pager

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/fold"
	"hitlist6/internal/snapfmt"
	"hitlist6/internal/telemetry"
)

// Metrics is the pager's instrumentation, injectable so one registry
// registration can be shared across corpus reopens (telemetry
// registries reject re-registration with conflicting help text, and a
// daemon reopens its corpus on every full checkpoint).
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
	// RAMBudget bounds the resident chunk payload bytes; 0 or negative
	// means unlimited (every loaded chunk stays). The budget is a high
	//-water mark for the cache: one chunk may transiently exceed it
	// during a load, and the most recently used chunk is never evicted.
	RAMBudget int64
	// Readahead is the chunk readahead window of streaming scans
	// (WriteCanonical, Restore, StreamAddrs); default 2.
	Readahead int
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

// Corpus is a tier file opened for reads: point lookups and range scans
// over the address records, with chunks paged in on demand and held
// under Options.RAMBudget. All methods are safe for concurrent use.
type Corpus struct {
	f         *os.File
	total     uint64
	addrN     int
	chunkRecs int
	iid       []byte
	dir       []dirEntry
	budget    int64
	readahead int
	met       *Metrics

	mu            sync.Mutex
	res           map[int][]byte
	lruPrev       []int32
	lruNext       []int32
	lruHead       int32
	lruTail       int32
	residentBytes int64
	inflight      map[int]*inflightLoad
	firstErr      error
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

// Open opens a tier file. Only the resident sections — meta, directory,
// IID bytes — are read; chunk offsets are derived from the directory's
// record counts, so opening a corpus far larger than RAM touches none
// of its chunk data.
func Open(path string, o Options) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	c, err := open(f, o)
	if err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

func open(f *os.File, o Options) (*Corpus, error) {
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
	iidBytes := binary.BigEndian.Uint64(meta[24:])

	if chunkRecs == 0 {
		return nil, fmt.Errorf("pager: tier declares zero-record chunks")
	}
	// Every record costs at least tierRecWire bytes on the file; a meta
	// that declares more than the file could hold is damage, and bounding
	// here bounds every allocation below.
	if addrN > uint64(fileSize)/tierRecWire || iidBytes > uint64(fileSize) {
		return nil, fmt.Errorf("pager: tier declares %d records / %d IID bytes in a %d-byte file", addrN, iidBytes, fileSize)
	}
	wantChunks := (addrN + uint64(chunkRecs) - 1) / uint64(chunkRecs)
	if uint64(chunkCount) != wantChunks {
		return nil, fmt.Errorf("pager: tier declares %d chunks for %d records of %d", chunkCount, addrN, chunkRecs)
	}

	// Directory. Each entry's shape is validated as it streams in; the
	// fences must be internally ordered and disjoint ascending across
	// chunks, every chunk but the last exactly full (the global index ->
	// chunk mapping is pure arithmetic).
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

	if _, err := sr.Expect(secTierIIDs, iidBytes); err != nil {
		return nil, fmt.Errorf("pager: tier: %w", err)
	}
	iid := make([]byte, iidBytes)
	if _, err := io.ReadFull(sr, iid); err != nil {
		return nil, fmt.Errorf("pager: tier iids: %w", err)
	}
	if err := sr.End(); err != nil {
		return nil, fmt.Errorf("pager: tier iids: %w", err)
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

	met := o.Metrics
	if met == nil {
		met = NewMetrics(telemetry.NewRegistry())
	}
	readahead := o.Readahead
	if readahead <= 0 {
		readahead = 2
	}
	c := &Corpus{
		f:         f,
		total:     total,
		addrN:     int(addrN),
		chunkRecs: int(chunkRecs),
		iid:       iid,
		dir:       dir,
		budget:    o.RAMBudget,
		readahead: readahead,
		met:       met,
		res:       make(map[int][]byte),
		lruPrev:   make([]int32, len(dir)),
		lruNext:   make([]int32, len(dir)),
		lruHead:   -1,
		lruTail:   -1,
		inflight:  make(map[int]*inflightLoad),
	}
	c.setGauges()
	return c, nil
}

// Close releases the tier file. Outstanding readers must be done.
func (c *Corpus) Close() error { return c.f.Close() }

// NumAddrs returns the corpus's unique address count.
func (c *Corpus) NumAddrs() int { return c.addrN }

// TotalObservations returns the corpus's raw sighting count.
func (c *Corpus) TotalObservations() uint64 { return c.total }

// NumChunks returns the chunk count.
func (c *Corpus) NumChunks() int { return len(c.dir) }

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

// setGauges publishes the residency split; callers hold c.mu (or, at
// construction, exclusive ownership).
func (c *Corpus) setGauges() {
	c.met.Resident.Set(int64(len(c.res)))
	c.met.Cold.Set(int64(len(c.dir) - len(c.res)))
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

// chunk returns chunk ci's payload, loading it off the tier file if
// cold. Concurrent requests for the same cold chunk coalesce into one
// read.
func (c *Corpus) chunk(ci int) ([]byte, error) {
	c.mu.Lock()
	if p, ok := c.res[ci]; ok {
		c.lruUnlink(ci)
		c.lruPushFront(ci)
		c.mu.Unlock()
		return p, nil
	}
	if fl, ok := c.inflight[ci]; ok {
		c.mu.Unlock()
		<-fl.done
		return fl.payload, fl.err
	}
	fl := &inflightLoad{done: make(chan struct{})}
	c.inflight[ci] = fl
	c.mu.Unlock()

	p, err := c.readChunk(ci)

	c.mu.Lock()
	delete(c.inflight, ci)
	if err == nil {
		if _, ok := c.res[ci]; !ok {
			c.res[ci] = p
			c.residentBytes += int64(len(p))
			c.lruPushFront(ci)
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
func (c *Corpus) readChunk(ci int) ([]byte, error) {
	start := time.Now()
	d := &c.dir[ci]
	payload := chunkPayloadSize(d.n)
	buf := make([]byte, tierSectionOverhead+payload)
	if _, err := c.f.ReadAt(buf, d.off); err != nil {
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

// Get returns the record for an address without loading any chunk the
// filters can rule out: the fence search names the only chunk whose key
// range could hold a, and its bloom filter then vetoes the load for
// almost every absent key.
func (c *Corpus) Get(a addr.Addr) (collector.AddrRecord, bool, error) {
	ci := sort.Search(len(c.dir), func(i int) bool { return !c.dir[i].max.Less(a) })
	c.met.Probes.Inc()
	if ci == len(c.dir) || a.Less(c.dir[ci].min) {
		c.met.Skips.Inc()
		return collector.AddrRecord{}, false, nil
	}
	if !bloomHas(c.dir[ci].bloom, a) {
		c.met.Skips.Inc()
		return collector.AddrRecord{}, false, nil
	}
	p, err := c.chunk(ci)
	if err != nil {
		return collector.AddrRecord{}, false, err
	}
	n := int(c.dir[ci].n)
	j := sort.Search(n, func(j int) bool {
		return bytes.Compare(p[j*tierRecWire:j*tierRecWire+16], a[:]) >= 0
	})
	if j == n || !bytes.Equal(p[j*tierRecWire:j*tierRecWire+16], a[:]) {
		return collector.AddrRecord{}, false, nil
	}
	_, rec := collector.DecodeAddrRecord(p[j*tierRecWire : (j+1)*tierRecWire])
	return rec, true, nil
}

// Contains reports whether the corpus holds a.
func (c *Corpus) Contains(a addr.Addr) (bool, error) {
	_, ok, err := c.Get(a)
	return ok, err
}

// ---- range scans ----

// AddrsRange iterates the records with canonical-order indices in
// [lo, hi), loading chunks through the cache. It satisfies the analysis
// layer's AddrSource contract like Collector.AddrsRange does — the
// iteration order here is canonical (sorted), which every fold is
// insensitive to.
func (c *Corpus) AddrsRange(lo, hi int, fn func(a addr.Addr, r collector.AddrRecord) bool) {
	if err := c.AddrsRangeErr(lo, hi, fn); err != nil {
		// The interface has no error channel: the scan ends short and the
		// error goes sticky for Err(). Callers needing per-call errors use
		// AddrsRangeErr.
		c.noteErr(err)
	}
}

// noteErr records the first I/O or damage error an errorless interface
// path swallowed.
func (c *Corpus) noteErr(err error) {
	c.mu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.mu.Unlock()
}

// Err returns the first error an AddrsRange scan swallowed, if any.
// Fold pipelines over the errorless AddrSource interface check it once
// at the end instead of per record.
func (c *Corpus) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstErr
}

// AddrsRangeErr is AddrsRange with chunk-load errors surfaced.
func (c *Corpus) AddrsRangeErr(lo, hi int, fn func(a addr.Addr, r collector.AddrRecord) bool) error {
	if lo < 0 {
		lo = 0
	}
	if hi > c.addrN {
		hi = c.addrN
	}
	for g := lo; g < hi; {
		ci := g / c.chunkRecs
		p, err := c.chunk(ci)
		if err != nil {
			return err
		}
		base := ci * c.chunkRecs
		end := min(hi, base+int(c.dir[ci].n))
		for ; g < end; g++ {
			j := g - base
			a, rec := collector.DecodeAddrRecord(p[j*tierRecWire : (j+1)*tierRecWire])
			if !fn(a, rec) {
				return nil
			}
		}
	}
	return nil
}

var errStopScan = fmt.Errorf("pager: scan stopped")

// StreamAddrs walks every record in canonical order with bounded chunk
// readahead, bypassing the LRU cache: a full scan must not evict the
// working set, and its memory high-water mark is readahead+1 chunks
// regardless of corpus size.
func (c *Corpus) StreamAddrs(fn func(a addr.Addr, r collector.AddrRecord) bool) error {
	err := fold.Stream(len(c.dir), c.readahead,
		func(ci int) ([]byte, error) {
			c.mu.Lock()
			p, ok := c.res[ci]
			c.mu.Unlock()
			if ok {
				return p, nil
			}
			return c.readChunk(ci)
		},
		func(ci int, p []byte) error {
			for j := 0; j < int(c.dir[ci].n); j++ {
				a, rec := collector.DecodeAddrRecord(p[j*tierRecWire : (j+1)*tierRecWire])
				if !fn(a, rec) {
					return errStopScan
				}
			}
			return nil
		})
	if err == errStopScan {
		return nil
	}
	return err
}

// ---- canonical encoding ----

// WriteCanonical streams the corpus's canonical encoding: byte-for-byte
// what collector.WriteCanonical produces for the same observations,
// whether the chunks are fully resident, partially resident or entirely
// cold — the address half re-expands off the chunk walk, the IID half
// is the tier file's resident bytes verbatim.
func (c *Corpus) WriteCanonical(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var scratch [8]byte
	putU64 := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:], v)
		bw.Write(scratch[:])
	}
	putU64(c.total)
	putU64(uint64(c.addrN))
	err := c.StreamAddrs(func(a addr.Addr, r collector.AddrRecord) bool {
		bw.Write(a[:])
		putU64(uint64(r.First))
		putU64(uint64(r.Last))
		putU64(uint64(r.Count))
		putU64(uint64(r.Servers))
		return true
	})
	if err != nil {
		return err
	}
	if _, err := bw.Write(c.iid); err != nil {
		return err
	}
	return bw.Flush()
}

// Checksum returns the SHA-256 of the canonical encoding — comparable
// directly against collector.Checksum. The error surfaces chunk damage
// (the collector-side method has no I/O to fail).
func (c *Corpus) Checksum() ([32]byte, error) {
	h := sha256.New()
	var out [32]byte
	if err := c.WriteCanonical(h); err != nil {
		return out, err
	}
	copy(out[:], h.Sum(nil))
	return out, nil
}

// ---- full restore ----

// Restore rebuilds a live Collector from the tier: the full-fidelity
// path for analyses that need more than address scans (IID views, span
// chains, merging). Memory returns to O(corpus); the streaming walk
// keeps the rebuild itself at readahead+1 chunks over the collector's
// own footprint.
func (c *Corpus) Restore() (*collector.Collector, error) {
	b := collector.NewBuilder()
	var addErr error
	err := c.StreamAddrs(func(a addr.Addr, r collector.AddrRecord) bool {
		addErr = b.AddAddr(a, r)
		return addErr == nil
	})
	if err != nil {
		return nil, err
	}
	if addErr != nil {
		return nil, addErr
	}
	if err := parseCanonicalIIDs(c.iid, b); err != nil {
		return nil, err
	}
	return b.Finish(c.total)
}

// parseCanonicalIIDs feeds the canonical IID encoding into a builder.
// The bytes are CRC-covered on the file, but the parse still treats
// every length and count as hostile: damage is an error, never a panic
// or an over-allocation.
func parseCanonicalIIDs(b []byte, bld *collector.Builder) error {
	u64 := func() (uint64, bool) {
		if len(b) < 8 {
			return 0, false
		}
		v := binary.BigEndian.Uint64(b)
		b = b[8:]
		return v, true
	}
	count, ok := u64()
	if !ok || count > uint64(len(b))/32 {
		return fmt.Errorf("pager: tier IID section declares %d records in %d bytes", count, len(b))
	}
	var spans []collector.SpanWindow
	for i := uint64(0); i < count; i++ {
		key, ok1 := u64()
		first, ok2 := u64()
		last, ok3 := u64()
		cnt, ok4 := u64()
		sn, ok5 := u64()
		if !(ok1 && ok2 && ok3 && ok4 && ok5) {
			return fmt.Errorf("pager: tier IID section truncated at record %d", i)
		}
		if cnt > uint64(^uint32(0)) {
			return fmt.Errorf("pager: tier IID record %d count %d overflows", i, cnt)
		}
		spans = spans[:0]
		if sn != 0xffffffffffffffff {
			if sn > uint64(len(b))/24 {
				return fmt.Errorf("pager: tier IID record %d declares %d spans in %d bytes", i, sn, len(b))
			}
			for s := uint64(0); s < sn; s++ {
				p64, okA := u64()
				sf, okB := u64()
				sl, okC := u64()
				if !(okA && okB && okC) {
					return fmt.Errorf("pager: tier IID record %d span truncated", i)
				}
				spans = append(spans, collector.SpanWindow{
					P64: addr.Prefix64(p64), First: int64(sf), Last: int64(sl),
				})
			}
		}
		if err := bld.AddIID(addr.IID(key), int64(first), int64(last), uint32(cnt), spans); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("pager: tier IID section carries %d trailing bytes", len(b))
	}
	return nil
}
