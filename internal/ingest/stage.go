package ingest

import (
	"fmt"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
	"hitlist6/internal/cardinality"
	"hitlist6/internal/collector"
	"hitlist6/internal/outage"
)

// Stage is a per-shard enrichment stage: Process runs inline on the
// shard worker for every event (no locking needed — each instance is
// private to one shard), and Merge folds another shard's instance into
// this one when snapshots land on the pipeline-level view. Merge must
// be commutative and associative so results are shard-count independent,
// and must leave the other instance unused afterwards.
//
// A stage is for what needs the event's time, which the corpus does not
// keep: the outage series bins by it, the day slice filters on it. A
// function of (address, record) is a fold over the corpus at its reader.
type Stage interface {
	Name() string
	Process(ev Event)
	Merge(other Stage)
}

// StageFactory builds one private Stage instance per shard (plus one
// pipeline-level instance snapshots merge into).
type StageFactory func() Stage

// ---- Category stage ----

// CategoryStage tallies sightings per Figure-5 structural category:
// Σ rec.Count over a corpus's addresses grouped by category, which is
// how this module's readers get it. The stage stays as the per-event
// oracle of those folds' tests and because bench/layers links it.
type CategoryStage struct {
	Counts [addr.NumCategories]uint64
}

// Categories returns a CategoryStage factory.
func Categories() StageFactory {
	return func() Stage { return &CategoryStage{} }
}

// Name implements Stage.
func (s *CategoryStage) Name() string { return "categories" }

// Process implements Stage.
func (s *CategoryStage) Process(ev Event) {
	s.Counts[ev.Addr.IID().StructuralCategory()]++
}

// Merge implements Stage.
func (s *CategoryStage) Merge(other Stage) {
	o := other.(*CategoryStage)
	for i, n := range o.Counts {
		s.Counts[i] += n
	}
}

// ---- Cardinality stage ----

// HLLStage sketches unique-address cardinality per shard. This module's
// readers sketch the corpus's address set instead (same addresses, same
// registers: analysis.AddressSketch); like CategoryStage it stays as
// that fold's per-event oracle and for bench/layers.
type HLLStage struct {
	H *cardinality.HLL
}

// Cardinality returns an HLLStage factory at the given precision
// (see cardinality.NewHLL; 14 is the standard choice).
func Cardinality(precision uint8) StageFactory {
	return func() Stage {
		h, err := cardinality.NewHLL(precision)
		if err != nil {
			// Config error, surfaced at pipeline construction the first
			// time the factory runs.
			panic(err)
		}
		return &HLLStage{H: h}
	}
}

// Name implements Stage.
func (s *HLLStage) Name() string { return "cardinality" }

// Process implements Stage.
func (s *HLLStage) Process(ev Event) { s.H.AddAddr(ev.Addr) }

// Merge implements Stage.
func (s *HLLStage) Merge(other Stage) {
	// Same-precision by construction (one factory builds every
	// instance), so the only Merge error is impossible here.
	_ = s.H.Merge(other.(*HLLStage).H)
}

// ---- Outage-series stage ----

// OutageSeriesStage bins sightings into per-AS fixed-width time bins:
// outage.BuildSeries as an enrichment stage, so the passive outage
// detector consumes the same single ingest pass as every other analysis
// instead of replaying the world. Per-AS bin counts commute across
// addresses — exactly like the collector's per-address records — so
// shard instances merge by element-wise addition and the merged series
// is independent of the shard count.
//
// The stage runs in one of two modes. Window mode (OutageSeries) fixes
// [origin, end] up front and reproduces outage.BuildSeries over that
// window exactly. Live mode (OutageSeriesLive) has no window: bin 0
// anchors to the first event seen, aligned down to a bin boundary, and
// the series grows with the stream — the rolling shape a serving daemon
// detects over.
type OutageSeriesStage struct {
	binSec int64
	// origin is the Unix second of bin 0; anchored reports whether it
	// has been chosen (window mode: at construction; live: first event).
	origin   int64
	originT  time.Time
	anchored bool
	// bins caps the series length in window mode; 0 grows with the
	// stream. endUnix is the window end, for Series().Complete.
	bins    int
	endUnix int64
	counts  map[asdb.ASN][]int
	// routes is this instance's origin-AS lookup; lastBucket is
	// counts[lastASN], nil when unknown. Merge, rewind and anchor, which
	// may replace buckets, clear it.
	routes     *asdb.Memo[asdb.ASN]
	lastASN    asdb.ASN
	lastBucket []int
}

// outageBinSeconds validates the stage's bin width. The event stream
// carries Unix-second timestamps, so the bin must be a positive whole
// number of seconds; anything else panics at pipeline construction
// (a config error, like Cardinality's precision).
func outageBinSeconds(bin time.Duration) int64 {
	if bin <= 0 || bin%time.Second != 0 {
		panic(fmt.Sprintf("ingest: outage bin %v must be a positive whole number of seconds", bin))
	}
	return int64(bin / time.Second)
}

// OutageSeries returns a window-mode OutageSeriesStage factory over
// [origin, end] with the given bin width, resolving origin ASes against
// db. The merged series equals outage.BuildSeries(w, bin) for the same
// window and query stream.
func OutageSeries(db *asdb.DB, origin, end time.Time, bin time.Duration) StageFactory {
	binSec := outageBinSeconds(bin)
	bins := int(end.Sub(origin)/bin) + 1
	return func() Stage {
		return &OutageSeriesStage{
			binSec:   binSec,
			origin:   origin.Unix(),
			originT:  origin,
			anchored: true,
			bins:     bins,
			endUnix:  end.Unix(),
			counts:   make(map[asdb.ASN][]int),
			routes:   db.NewMemo(),
		}
	}
}

// OutageSeriesLive returns a live-mode OutageSeriesStage factory: no
// fixed window, bin 0 anchored to the first event, series growing with
// the stream. This is what cmd/ingestd runs for live detection.
func OutageSeriesLive(db *asdb.DB, bin time.Duration) StageFactory {
	binSec := outageBinSeconds(bin)
	return func() Stage {
		return &OutageSeriesStage{
			binSec: binSec,
			counts: make(map[asdb.ASN][]int),
			routes: db.NewMemo(),
		}
	}
}

// Name implements Stage.
func (s *OutageSeriesStage) Name() string { return "outage" }

// Process implements Stage.
func (s *OutageSeriesStage) Process(ev Event) {
	asn, routed := s.routes.Lookup(ev.Addr)
	if !routed {
		return // unrouted, like BuildSeries
	}
	if !s.anchored {
		if ev.Time < 0 {
			return // pre-epoch garbage cannot anchor an aligned origin
		}
		s.anchor(ev.Time / s.binSec * s.binSec)
	}
	if ev.Time < s.origin && s.bins == 0 {
		if ev.Time < 0 {
			return
		}
		s.rewind(ev.Time / s.binSec * s.binSec)
	}
	// Truncation toward zero matches BuildSeries: an event less than one
	// bin before origin still lands in bin 0.
	idx := int((ev.Time - s.origin) / s.binSec)
	if idx < 0 || (s.bins > 0 && idx >= s.bins) {
		return
	}
	// The map is read when the AS changes and written only when a bucket
	// grows: in window mode once per AS, at the full window (the length
	// Series returns anyway).
	bucket := s.lastBucket
	if bucket == nil || s.lastASN != asn {
		bucket = s.counts[asn]
	}
	if len(bucket) <= idx {
		n := idx + 1
		if s.bins > 0 {
			n = s.bins
		}
		bucket = append(bucket, make([]int, n-len(bucket))...)
		s.counts[asn] = bucket
	}
	s.lastASN, s.lastBucket = asn, bucket
	bucket[idx]++
}

func (s *OutageSeriesStage) anchor(origin int64) {
	s.lastBucket = nil
	s.origin = origin
	s.originT = time.Unix(origin, 0).UTC()
	s.anchored = true
}

// rewind moves bin 0 back to an earlier aligned origin, prepending
// zeros to every AS's bins (live mode only; window origins are fixed).
func (s *OutageSeriesStage) rewind(newOrigin int64) {
	delta := int((s.origin - newOrigin) / s.binSec)
	if delta <= 0 {
		return
	}
	for asn, c := range s.counts {
		nc := make([]int, delta+len(c))
		copy(nc[delta:], c)
		s.counts[asn] = nc
	}
	s.anchor(newOrigin)
}

// Merge implements Stage. Live-mode shards may have anchored to
// different (bin-aligned) origins; counts are keyed by absolute time,
// so reconciling to the earliest origin keeps Merge commutative and
// associative.
func (s *OutageSeriesStage) Merge(other Stage) {
	o := other.(*OutageSeriesStage)
	s.lastBucket = nil
	if !o.anchored {
		return
	}
	if !s.anchored {
		s.anchor(o.origin)
		s.counts = o.counts
		return
	}
	if o.origin < s.origin {
		s.rewind(o.origin)
	}
	off := int((o.origin - s.origin) / s.binSec)
	for asn, oc := range o.counts {
		mine := s.counts[asn]
		if need := off + len(oc); len(mine) < need {
			mine = append(mine, make([]int, need-len(mine))...)
		}
		for i, n := range oc {
			mine[off+i] += n
		}
		s.counts[asn] = mine
	}
}

// Series materializes the accumulated bins as an outage.Series, deep-
// copied so callers may keep it while the pipeline merges further
// snapshots. In window mode the result equals outage.BuildSeries over
// the same window; in live mode it spans bin 0 through the newest
// observed bin, with that newest bin marked incomplete (it is still
// filling).
func (s *OutageSeriesStage) Series() *outage.Series {
	bins := s.bins
	if bins == 0 {
		for _, c := range s.counts {
			if len(c) > bins {
				bins = len(c)
			}
		}
	}
	out := &outage.Series{
		Origin: s.originT,
		Bin:    time.Duration(s.binSec) * time.Second,
		Bins:   bins,
		ByAS:   make(map[asdb.ASN][]int, len(s.counts)),
	}
	if s.bins > 0 {
		out.Complete = int((s.endUnix - s.origin) / s.binSec)
	} else if bins > 0 {
		out.Complete = bins - 1
	}
	for asn, c := range s.counts {
		full := make([]int, bins)
		copy(full, c)
		out.ByAS[asn] = full
	}
	return out
}

// ---- Day-slice stage ----

// DaySliceStage collects the sightings of one 24-hour window into its
// own collector: the paper's single-day analyses (Figures 4b and 5)
// as an inline enrichment instead of a second replay pass.
type DaySliceStage struct {
	start, end int64
	Col        *collector.Collector
}

// DaySlice returns a DaySliceStage factory for [start, end) in Unix
// seconds.
func DaySlice(start, end int64) StageFactory {
	return func() Stage {
		return &DaySliceStage{start: start, end: end, Col: collector.New()}
	}
}

// Name implements Stage.
func (s *DaySliceStage) Name() string { return "dayslice" }

// Process implements Stage.
func (s *DaySliceStage) Process(ev Event) {
	if ev.Time >= s.start && ev.Time < s.end {
		s.Col.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
	}
}

// Merge implements Stage. Stage merges own their operand (the contract
// leaves other unused afterwards), so Absorb applies: the first slice
// merged into the empty pipeline-level instance is stolen in O(1), the
// rest are record Merges that leave the donor zeroed.
func (s *DaySliceStage) Merge(other Stage) {
	s.Col.Absorb(other.(*DaySliceStage).Col)
}
