// Package tracking implements the paper's §5 privacy analyses over the
// passive corpus: EUI-64 prevalence and manufacturer attribution (§5.1,
// Table 2), the five-way device-tracking classifier (§5.2), and the
// Figure 7 exemplar timelines.
package tracking

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
	"hitlist6/internal/collector"
	"hitlist6/internal/fold"
	"hitlist6/internal/geodb"
	"hitlist6/internal/oui"
)

// Class is the §5.2 explanation for an EUI-64 IID's re-occurrence
// pattern.
type Class uint8

const (
	// NotTrackable: the IID never changed /64 (excluded from the
	// classification universe).
	NotTrackable Class = iota
	// MostlyStatic: low AS count, low country count, few transitions
	// (paper: 86%).
	MostlyStatic
	// PrefixReassignment: one AS, one country, many /64 transitions —
	// provider renumbering (paper: 8%, Fig 7a).
	PrefixReassignment
	// MACReuse: many ASes AND many countries — several devices share the
	// identifier (paper: 0.01%, Fig 7b).
	MACReuse
	// ProviderChange: multiple ASes in one country, few transitions
	// (paper: 5%, Fig 7c).
	ProviderChange
	// UserMovement: multiple ASes in one country with many transitions —
	// a device moving between WiFi and cellular (paper: 0.44%, Fig 7d).
	UserMovement
	// NumClasses counts the classes.
	NumClasses
)

// String names the class as §5.2 does.
func (c Class) String() string {
	switch c {
	case NotTrackable:
		return "Not trackable (single /64)"
	case MostlyStatic:
		return "Mostly static hosts"
	case PrefixReassignment:
		return "Likely prefix reassignment"
	case MACReuse:
		return "Likely MAC reuse"
	case ProviderChange:
		return "Changing providers"
	case UserMovement:
		return "Likely user movement"
	default:
		return "Unknown"
	}
}

// transitionThreshold is the paper's "more than 10 transitions is high".
const transitionThreshold = 10

// P64Span is one /64 the identifier appeared in, with its sighting
// window in Unix seconds.
type P64Span struct {
	P64         addr.Prefix64
	First, Last int64
}

// MACInfo aggregates everything known about one EUI-64 identifier. All
// fields are copied out of the collector, so an analysis owns its data
// outright — it stays valid (and race-free) after the store it was read
// from keeps merging snapshots.
type MACInfo struct {
	MAC    addr.MAC
	IID    addr.IID
	Vendor string
	// First, Last and Count summarize all sightings of the identifier.
	First, Last int64
	Count       uint32
	// Spans holds the per-/64 sighting windows, sorted by prefix.
	Spans []P64Span
	// ASNs and Countries are the distinct origin networks the identifier
	// appeared in.
	ASNs      map[asdb.ASN]struct{}
	Countries map[string]struct{}
	// Transitions approximates /64 changes as (#distinct /64s - 1).
	Transitions int
	Class       Class
}

// Classify applies the paper's heuristic to one identifier's footprint.
func Classify(numASes, numCountries, transitions int) Class {
	if transitions < 1 {
		return NotTrackable
	}
	asHigh := numASes > 1
	ccHigh := numCountries > 1
	trHigh := transitions > transitionThreshold
	switch {
	case ccHigh:
		// Many countries (necessarily with several ASes in practice):
		// simultaneous devices, i.e. vendor MAC reuse.
		return MACReuse
	case asHigh && trHigh:
		return UserMovement
	case asHigh:
		return ProviderChange
	case trHigh:
		return PrefixReassignment
	default:
		return MostlyStatic
	}
}

// Analysis is the full §5.1/§5.2 result set.
type Analysis struct {
	// EUI64Addresses is the number of unique EUI-64 addresses in the
	// corpus (paper: 238,281,703 = 3%).
	EUI64Addresses int
	// ExpectedRandom is how many random IIDs would masquerade as EUI-64
	// (corpus size / 2^16; paper: < 121,000).
	ExpectedRandom float64
	// MACs holds one entry per unique embedded MAC.
	MACs []*MACInfo
	// Trackable is the number of MACs in >= 2 /64s (paper: 14,943,429 =
	// 8.7%).
	Trackable int
	// ClassCounts tallies trackable MACs per class.
	ClassCounts [NumClasses]int
	// VendorCounts is Table 2: embedded-MAC count per manufacturer.
	VendorCounts map[string]int
}

// AnalyzeWorkers runs the full EUI-64 privacy analysis over a corpus's
// IID table as two parallel folds: the EUI-64 address prevalence count
// over the address records the table was folded from, and the per-MAC
// footprint construction over the promoted IID slab. Per-MAC work (span copy, AS
// and country attribution, classification) is independent, partials
// merge by concatenation plus counter addition, and the final MAC sort
// makes the result identical at every worker count.
func AnalyzeWorkers(t *collector.IIDTable, db *asdb.DB, geo *geodb.DB, reg *oui.Registry, workers int) *Analysis {
	a := &Analysis{VendorCounts: make(map[string]int)}
	c := t.Records()

	// Count unique EUI-64 *addresses* for the prevalence headline.
	a.EUI64Addresses = fold.Map(c.NumAddrs(), workers,
		func(lo, hi int) int {
			n := 0
			c.AddrsRange(lo, hi, func(ad addr.Addr, _ collector.AddrRecord) bool {
				if ad.IID().IsEUI64() {
					n++
				}
				return true
			})
			return n
		},
		func(dst, src int) int { return dst + src })
	a.ExpectedRandom = float64(c.NumAddrs()) / 65536

	part := fold.Map(t.NumPromotedIIDs(), workers,
		func(lo, hi int) *Analysis {
			p := &Analysis{VendorCounts: make(map[string]int)}
			t.EUI64IIDsRange(lo, hi, func(iid addr.IID, r collector.IIDView) bool {
				mac, err := addr.MACFromEUI64(iid)
				if err != nil {
					return true
				}
				info := &MACInfo{
					MAC:       mac,
					IID:       iid,
					Vendor:    reg.LookupMAC(mac),
					First:     r.First(),
					Last:      r.Last(),
					Count:     r.Count(),
					Spans:     make([]P64Span, 0, r.NumP64s()),
					ASNs:      make(map[asdb.ASN]struct{}),
					Countries: make(map[string]struct{}),
				}
				r.P64s(func(p addr.Prefix64, sp collector.Span) bool {
					info.Spans = append(info.Spans, P64Span{P64: p, First: sp.First, Last: sp.Last})
					base := p.Addr()
					if asn, ok := db.OriginASN(base); ok {
						info.ASNs[asn] = struct{}{}
					}
					if cc := geo.Country(base); cc != "" {
						info.Countries[cc] = struct{}{}
					}
					return true
				})
				sort.Slice(info.Spans, func(i, j int) bool { return info.Spans[i].P64 < info.Spans[j].P64 })
				info.Transitions = len(info.Spans) - 1
				info.Class = Classify(len(info.ASNs), len(info.Countries), info.Transitions)
				p.MACs = append(p.MACs, info)
				p.VendorCounts[info.Vendor]++
				if info.Class != NotTrackable {
					p.Trackable++
				}
				p.ClassCounts[info.Class]++
				return true
			})
			return p
		},
		func(dst, src *Analysis) *Analysis {
			if dst == nil {
				return src
			}
			if src != nil {
				dst.MACs = append(dst.MACs, src.MACs...)
				//lint:ordered per-vendor count sums commute; the merged map carries no order
				for v, n := range src.VendorCounts {
					dst.VendorCounts[v] += n
				}
				dst.Trackable += src.Trackable
				for i, n := range src.ClassCounts {
					dst.ClassCounts[i] += n
				}
			}
			return dst
		})
	if part != nil {
		a.MACs = part.MACs
		a.VendorCounts = part.VendorCounts
		a.Trackable = part.Trackable
		a.ClassCounts = part.ClassCounts
	}
	sort.Slice(a.MACs, func(i, j int) bool {
		return macLess(a.MACs[i].MAC, a.MACs[j].MAC)
	})
	return a
}

func macLess(x, y addr.MAC) bool {
	for i := 0; i < 6; i++ {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// ClassShare returns the fraction of *trackable* MACs in a class, the
// denominator the paper uses for its 86/8/0.01/5/0.44% split.
func (a *Analysis) ClassShare(c Class) float64 {
	if a.Trackable == 0 || c == NotTrackable {
		return 0
	}
	return float64(a.ClassCounts[c]) / float64(a.Trackable)
}

// VendorRow is one Table 2 line.
type VendorRow struct {
	Manufacturer string
	Count        int
}

// Table2 returns manufacturer counts sorted descending (ties by name),
// exactly the layout of the paper's Table 2.
func (a *Analysis) Table2() []VendorRow {
	out := make([]VendorRow, 0, len(a.VendorCounts))
	for v, n := range a.VendorCounts {
		out = append(out, VendorRow{Manufacturer: v, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Manufacturer < out[j].Manufacturer
	})
	return out
}

// UnlistedShare returns the fraction of MACs resolving to no registered
// manufacturer (paper: 73.9%).
func (a *Analysis) UnlistedShare() float64 {
	if len(a.MACs) == 0 {
		return 0
	}
	return float64(a.VendorCounts[oui.Unlisted]) / float64(len(a.MACs))
}

// TimelineEntry is one prefix residence of a tracked identifier.
type TimelineEntry struct {
	Prefix48    addr.Prefix48
	ASN         asdb.ASN
	ASName      string
	Country     string
	First, Last time.Time
}

// Timeline reconstructs the Figure 7 exemplar view for one MAC: every /48
// it appeared in, with AS attribution and the sighting window, ordered by
// first sighting.
func Timeline(info *MACInfo, db *asdb.DB) []TimelineEntry {
	byP48 := make(map[addr.Prefix48]*TimelineEntry)
	for _, span := range info.Spans {
		p48 := span.P64.P48()
		e, ok := byP48[p48]
		if !ok {
			e = &TimelineEntry{
				Prefix48: p48,
				First:    time.Unix(span.First, 0).UTC(),
				Last:     time.Unix(span.Last, 0).UTC(),
			}
			if as := db.Lookup(p48.Addr()); as != nil {
				e.ASN, e.ASName, e.Country = as.ASN, as.Name, as.Country
			}
			byP48[p48] = e
		} else {
			if f := time.Unix(span.First, 0).UTC(); f.Before(e.First) {
				e.First = f
			}
			if l := time.Unix(span.Last, 0).UTC(); l.After(e.Last) {
				e.Last = l
			}
		}
	}
	out := make([]TimelineEntry, 0, len(byP48))
	for _, e := range byP48 {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].First.Equal(out[j].First) {
			return out[i].First.Before(out[j].First)
		}
		return out[i].Prefix48 < out[j].Prefix48
	})
	return out
}

// Exemplar picks the trackable MAC best illustrating a class: the one
// with the most /64s (MACReuse prefers most countries). Returns nil when
// the class is empty.
func (a *Analysis) Exemplar(c Class) *MACInfo {
	var best *MACInfo
	score := func(m *MACInfo) int {
		if c == MACReuse {
			return len(m.Countries)*1000 + len(m.Spans)
		}
		return len(m.Spans)
	}
	for _, m := range a.MACs {
		if m.Class != c {
			continue
		}
		if best == nil || score(m) > score(best) {
			best = m
		}
	}
	return best
}

// RenderTimeline prints a Figure 7-style text timeline.
func RenderTimeline(info *MACInfo, db *asdb.DB) string {
	var b strings.Builder
	fmt.Fprintf(&b, "MAC %s (%s) — %s\n", info.MAC, info.Vendor, info.Class)
	for _, e := range Timeline(info, db) {
		fmt.Fprintf(&b, "  %s  %s – %s  AS%d %s (%s)\n",
			e.Prefix48, e.First.Format("02-Jan-06"), e.Last.Format("02-Jan-06"),
			e.ASN, e.ASName, e.Country)
	}
	return b.String()
}
