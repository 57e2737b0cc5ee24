// Package outage implements passive outage detection, one of the hitlist
// applications the paper's introduction motivates: a sudden silence of an
// AS's NTP clients is visible in the passive feed long before any active
// probing would notice.
//
// The detector bins query arrivals per AS, estimates each AS's typical
// bin volume, and flags runs of bins that fall below a fraction of it.
package outage

import (
	"fmt"
	"sort"
	"time"

	"hitlist6/internal/asdb"
	"hitlist6/internal/simnet"
)

// Series holds per-AS query counts in fixed time bins.
type Series struct {
	Origin time.Time
	Bin    time.Duration
	Bins   int
	// Complete is the number of leading bins fully covered by the
	// collection window. A final bin that only partially overlaps the
	// window carries genuinely lower volume and would read as a false
	// outage, so Detect ignores bins at or past this index. 0 means
	// unknown: every bin is treated as complete (the behaviour of
	// hand-built series).
	Complete int
	ByAS     map[asdb.ASN][]int
}

// BuildSeries replays the world's NTP queries into per-AS time bins.
//
//lint:api the reference replay the ingest stage's window series is held to
func BuildSeries(w *simnet.World, bin time.Duration) (*Series, error) {
	if bin <= 0 {
		return nil, fmt.Errorf("outage: bin must be positive")
	}
	window := w.End.Sub(w.Origin)
	total := int(window/bin) + 1
	s := &Series{
		Origin: w.Origin,
		Bin:    bin,
		Bins:   total,
		// The final bin extends past w.End (or, when bin divides the
		// window exactly, lies entirely beyond it) — never complete.
		Complete: int(window / bin),
		ByAS:     make(map[asdb.ASN][]int),
	}
	w.GenerateQueries(func(q simnet.Query) {
		as := w.ASDB.Lookup(q.Addr)
		if as == nil {
			return
		}
		idx := int(q.Time.Sub(w.Origin) / bin)
		if idx < 0 || idx >= total {
			return
		}
		counts := s.ByAS[as.ASN]
		if counts == nil {
			counts = make([]int, total)
			s.ByAS[as.ASN] = counts
		}
		counts[idx]++
	})
	return s, nil
}

// Tail restricts the series to its last n complete bins (plus any
// trailing incomplete ones): the rolling window a live detector scans
// so that a long-running daemon's baseline tracks recent traffic. n <= 0,
// or n covering the whole series, returns s unchanged. The returned
// series shares count storage with s and must be treated as read-only.
func (s *Series) Tail(n int) *Series {
	complete := s.Complete
	if complete <= 0 || complete > s.Bins {
		complete = s.Bins
	}
	if n <= 0 || n >= complete {
		return s
	}
	drop := complete - n
	out := &Series{
		Origin:   s.Origin.Add(time.Duration(drop) * s.Bin),
		Bin:      s.Bin,
		Bins:     s.Bins - drop,
		Complete: n,
		ByAS:     make(map[asdb.ASN][]int, len(s.ByAS)),
	}
	//lint:ordered per-AS window slicing is independent per key; the output is a map
	for asn, counts := range s.ByAS {
		if len(counts) <= drop {
			out.ByAS[asn] = nil
			continue
		}
		out.ByAS[asn] = counts[drop:]
	}
	return out
}

// Config tunes detection.
type Config struct {
	// Threshold is the fraction of the AS's median bin volume below
	// which a bin counts as dark (default 0.2).
	Threshold float64
	// MinBins is the minimum consecutive dark bins to report (default 2).
	MinBins int
	// MinMedian skips ASes whose median bin volume is below this (too
	// quiet to judge; default 5).
	MinMedian int
}

// DefaultConfig returns sane thresholds.
func DefaultConfig() Config {
	return Config{Threshold: 0.2, MinBins: 2, MinMedian: 5}
}

// Event is one detected outage.
type Event struct {
	ASN      asdb.ASN
	From, To time.Time
	// MedianVolume is the AS's baseline bin count; DarkBins the length.
	MedianVolume float64
	DarkBins     int
}

// Detect scans the series for outages.
func Detect(s *Series, cfg Config) []Event {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 0.2
	}
	if cfg.MinBins <= 0 {
		cfg.MinBins = 2
	}
	if cfg.MinMedian <= 0 {
		cfg.MinMedian = 5
	}
	var events []Event
	asns := make([]asdb.ASN, 0, len(s.ByAS))
	for asn := range s.ByAS {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })

	for _, asn := range asns {
		counts := s.ByAS[asn]
		// Exclude the trailing incomplete bin(s): their volume is low
		// because the window ends mid-bin, not because the AS went dark,
		// and they would also drag the median baseline down.
		if n := s.Complete; n > 0 && n < len(counts) {
			counts = counts[:n]
		}
		med := median(counts)
		if med < float64(cfg.MinMedian) {
			continue
		}
		limit := cfg.Threshold * med
		run := 0
		for i := 0; i <= len(counts); i++ {
			dark := i < len(counts) && float64(counts[i]) < limit
			if dark {
				run++
				continue
			}
			if run >= cfg.MinBins {
				events = append(events, Event{
					ASN:          asn,
					From:         s.Origin.Add(time.Duration(i-run) * s.Bin),
					To:           s.Origin.Add(time.Duration(i) * s.Bin),
					MedianVolume: med,
					DarkBins:     run,
				})
			}
			run = 0
		}
	}
	return events
}

func median(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	sorted := append([]int(nil), counts...)
	sort.Ints(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return float64(sorted[n/2])
	}
	return float64(sorted[n/2-1]+sorted[n/2]) / 2
}

// String renders the event.
func (e Event) String() string {
	return fmt.Sprintf("AS%d dark %s – %s (%d bins, baseline %.0f q/bin)",
		e.ASN, e.From.Format("02-Jan-06 15:04"), e.To.Format("02-Jan-06 15:04"),
		e.DarkBins, e.MedianVolume)
}
