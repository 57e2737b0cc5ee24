package hitlist6

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/analysis"
	"hitlist6/internal/asdb"
	"hitlist6/internal/fold"
	"hitlist6/internal/geodb"
	"hitlist6/internal/oui"
	"hitlist6/internal/scan"
	"hitlist6/internal/stats"
	"hitlist6/internal/telemetry"
	"hitlist6/internal/tracking"
)

// reportSection is one named unit of Report: the name keys the
// section's timing series on /metrics and never appears in the rendered
// text, so naming sections cannot perturb the golden report.
type reportSection struct {
	name string
	fn   func() string
}

// timedTask wraps one named unit of Report work (a section render or a
// shared-input build) so its wall time feeds
// report_section_seconds{section=name} on Config.Telemetry. With no
// registry the task runs bare — zero instrumentation cost on the
// default path.
func (s *Study) timedTask(name string, fn func()) func() {
	reg := s.Config.Telemetry
	if reg == nil {
		return fn
	}
	h := reg.Histogram("report_section_seconds",
		"Wall time of one report section render or shared-input build.",
		telemetry.DurationBuckets(), telemetry.L("section", name))
	return func() {
		start := time.Now()
		fn()
		h.ObserveDuration(time.Since(start))
	}
}

// Report runs every experiment of the paper's evaluation and renders the
// results as text, one section per table/figure. It is the programmatic
// equivalent of reading the paper's §4 and §5 off this reproduction.
//
// The sections compute concurrently on Config.AnalysisWorkers workers:
// one parallel phase builds the shared per-dataset attribute sidecars,
// the tracking analysis and the backscan campaign, then every section
// renders as an independent task over those shared inputs and the texts
// join in fixed order. The output is byte-identical to the serial
// single-worker rendering at every worker count (pinned by the golden
// report test).
func (s *Study) Report() (string, error) {
	if err := s.requireDatasets(); err != nil {
		return "", err
	}
	workers := s.analysisWorkers()
	db := s.World.ASDB

	// Phase 1: the shared inputs. Sidecars are immutable once built;
	// building them here also seals every dataset before the sections
	// start reading them concurrently. Each build is timed as
	// input:<name> alongside the sections (see timedTask), so a slow
	// report points at its expensive phase directly.
	var (
		scNTP, scHL, scCAIDA, scDay *analysis.Sidecar
		tr                          *tracking.Analysis
		bs                          *scan.BackscanStats
		bsErr                       error
	)
	input := func(name string, fn func()) func() { return s.timedTask("input:"+name, fn) }
	fold.Each(workers,
		input("sidecar_ntp", func() { scNTP = analysis.BuildSidecar(s.NTP, db, workers) }),
		input("sidecar_hitlist", func() { scHL = analysis.BuildSidecar(s.Hitlist.Dataset, db, workers) }),
		input("sidecar_caida", func() { scCAIDA = analysis.BuildSidecar(s.CAIDA, db, workers) }),
		input("sidecar_day", func() { scDay = analysis.BuildSidecar(s.NTPDay, db, workers) }),
		input("tracking", func() {
			tr = tracking.AnalyzeWorkers(s.IIDs, db, s.World.Geo, s.World.OUI, workers)
		}),
		input("backscan", func() { bs, bsErr = s.Backscan() }),
	)
	if bsErr != nil {
		return "", bsErr
	}

	// Phase 2: the sections, in report order. Each renders its own text
	// chunk; sec formats one "\n<body>\n" block exactly like the serial
	// renderer did.
	sec := func(format string, args ...any) string {
		return fmt.Sprintf("\n"+format+"\n", args...)
	}
	var geoErr error
	sections := []reportSection{
		{"header", // observations + HLL
			func() string { return s.reportHeader(workers) }},

		{"table1", func() string {
			return sec("%s", analysis.ComputeTable1Sidecar(scNTP, scHL, scCAIDA, workers).Render())
		}},

		{"as_types", func() string { // §4.1 AS type shares
			typeTable := stats.NewTable("", "Dataset", "Phone Provider", "ISP", "Hosting")
			for _, row := range []struct {
				name  string
				share map[asdb.ASType]float64
			}{
				{"NTP", analysis.ASTypeShareSidecar(scNTP, workers)},
				{"Hitlist", analysis.ASTypeShareSidecar(scHL, workers)},
				{"CAIDA", analysis.ASTypeShareSidecar(scCAIDA, workers)},
			} {
				typeTable.AddRow(row.name,
					stats.Pct(row.share[asdb.TypePhoneProvider], 1),
					stats.Pct(row.share[asdb.TypeISP], 1),
					stats.Pct(row.share[asdb.TypeHosting], 1))
			}
			return sec("AS-type composition (share of addresses; paper: NTP has ~14%% Phone Provider, Hitlist ~2%%)") +
				sec("%s", typeTable.String())
		}},

		{"figure1", func() string {
			f1 := analysis.ComputeFigure1Sidecar(scNTP, scHL, scCAIDA, workers)
			f1Table := stats.NewTable("", "Curve", "N", "Median entropy")
			f1Table.AddRowf("NTP", f1.NTP.N(), f1.NTP.Median())
			f1Table.AddRowf("IPv6 Hitlist", f1.Hitlist.N(), f1.Hitlist.Median())
			f1Table.AddRowf("CAIDA", f1.CAIDA.N(), f1.CAIDA.Median())
			f1Table.AddRowf("NTP ∩ Hitlist", f1.NTPxHitlist.N(), f1.NTPxHitlist.Median())
			f1Table.AddRowf("NTP ∩ CAIDA", f1.NTPxCAIDA.N(), f1.NTPxCAIDA.Median())
			return sec("Figure 1: normalized IID entropy medians (paper: NTP ~0.8, Hitlist ~0.7, CAIDA ~0)") +
				sec("%s", f1Table.String()) +
				sec("%s", stats.AsciiCDF("Figure 1 (CDF of IID entropy)", map[string][]stats.CDFPoint{
					"NTP":     f1.NTP.CDFSeries(48),
					"Hitlist": f1.Hitlist.CDFSeries(48),
					"CAIDA":   f1.CAIDA.CDFSeries(48),
				}, 48, 12))
		}},

		{"figure2a", func() string {
			f2a := analysis.ComputeFigure2aWorkers(s.Collector, workers)
			f2aTable := stats.NewTable("", "Metric", "Fraction")
			f2aTable.AddRow("observed once", stats.Pct(f2a.ObservedOnce, 1))
			f2aTable.AddRow(">= 1 week", stats.Pct(f2a.WeekOrLonger, 2))
			f2aTable.AddRow(">= 30 days", stats.Pct(f2a.MonthOrLonger, 2))
			f2aTable.AddRow("> 180 days", stats.Pct(f2a.SixMonthsOrLonger, 3))
			return sec("Figure 2a: address lifetimes (paper: >60%% observed once; 1.2%% ≥1w; 0.4%% ≥30d; 0.03%% >6mo)") +
				sec("%s", f2aTable.String())
		}},

		{"figure2b", func() string {
			f2b := analysis.ComputeFigure2bWorkers(s.IIDs, workers)
			f2bTable := stats.NewTable("", "Entropy class", "IIDs", "Observed once", ">= 1 week")
			for _, cls := range []addr.EntropyClass{addr.LowEntropy, addr.MediumEntropy, addr.HighEntropy} {
				n, ok := f2b.ByClass[cls]
				if !ok {
					continue
				}
				f2bTable.AddRow(cls.String(), stats.Comma(int64(n)),
					stats.Pct(f2b.ObservedOnce[cls], 1), stats.Pct(f2b.WeekOrLonger[cls], 1))
			}
			return sec("Figure 2b: IID lifetime by entropy class (paper: 10%% of low-entropy IIDs last ≥1 week vs ≤5%% of others)") +
				sec("%s", f2bTable.String())
		}},

		{"backscan", func() string { // §4.2 backscanning + Figure 3
			return sec("%s", RenderBackscan(bs, s))
		}},

		{"figure4a", func() string {
			return sec("%s", renderFigure4("Figure 4a: top-5 AS entropy medians (full window)",
				analysis.TopASEntropySidecar(scNTP, db, 5, workers)))
		}},

		{"figure4b", func() string {
			return sec("%s", renderFigure4("Figure 4b: top-5 AS entropy medians (1-day slice)",
				analysis.TopASEntropySidecar(scDay, db, 5, workers)))
		}},

		{"strategies", func() string { // §4.3 addressing strategies
			return sec("%s", analysis.RenderStrategies(
				analysis.InferStrategiesSidecar(scNTP, db, 6, workers)))
		}},

		{"figure5", func() string {
			f5 := analysis.ComputeFigure5Sidecar(scDay, scHL, workers)
			f5Table := stats.NewTable("", "Category", "NTP", "IPv6 Hitlist")
			for c := addr.Category(0); c < addr.NumCategories; c++ {
				f5Table.AddRow(c.String(),
					stats.Pct(f5.NTP.Fractions[c], 2), stats.Pct(f5.Hitlist.Fractions[c], 2))
			}
			return sec("Figure 5: addressing categories, 1-day slice (paper: NTP ~2/3 high entropy; Hitlist low-byte heavy)") +
				sec("%s", f5Table.String())
		}},

		{"tracking", func() string { // §5.1/5.2
			return sec("%s", RenderTracking(tr, db))
		}},

		{"geolocation", func() string { // §5.3 (shares the tracking analysis)
			geo, err := s.geolocationFrom(tr, 0)
			if err != nil {
				geoErr = err
				return ""
			}
			return sec("%s", RenderGeolocation(geo))
		}},
	}
	texts := make([]string, len(sections))
	tasks := make([]func(), len(sections))
	for i := range sections {
		i := i
		fn := sections[i].fn
		tasks[i] = s.timedTask(sections[i].name, func() { texts[i] = fn() })
	}
	fold.Each(workers, tasks...)
	if geoErr != nil {
		return "", geoErr
	}
	return strings.Join(texts, ""), nil
}

// reportHeader renders the report preamble: the run parameters, the
// observation counts and the HyperLogLog estimate. At the paper's 7.9B
// scale exact sets do not fit in memory; the constant-space estimator a
// full deployment would use is shown next to the exact count this
// simulation can afford.
func (s *Study) reportHeader(workers int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "IPv6 Hitlists at Scale — reproduction report (seed=%d scale=%g days=%d)\n",
		s.Config.Seed, s.Config.Scale, s.Config.Days)
	fmt.Fprintf(&b, "Observations: %s queries, %s unique addresses, %s unique IIDs\n",
		stats.Comma(int64(s.RunStats.Queries)),
		stats.Comma(int64(s.Collector.NumAddrs())),
		stats.Comma(int64(s.IIDs.NumIIDs())))
	sketch := analysis.AddressSketch(nil, s.Collector, 0, s.Collector.NumAddrs(), workers)
	fmt.Fprintf(&b, "HyperLogLog estimate: %s unique addresses from a %d-byte sketch (±%.1f%%)\n",
		stats.Comma(int64(sketch.Estimate())), sketch.SizeBytes(),
		100*sketch.RelativeError())
	return b.String()
}

// renderFigure4 formats one Figure 4 table.
func renderFigure4(title string, rows []analysis.ASEntropy) string {
	tb := stats.NewTable(title, "AS", "Addresses", "Median entropy", "Frac > 0.75")
	for _, r := range rows {
		tb.AddRow(fmt.Sprintf("AS%d %s", r.ASN, r.Name),
			stats.Comma(int64(r.Count)),
			fmt.Sprintf("%.3f", r.Dist.Median()),
			stats.Pct(r.Dist.CCDF(0.75), 1))
	}
	return tb.String()
}

// RenderBackscan formats the §4.2 campaign results with Figure 3's
// entropy medians.
func RenderBackscan(bs *scan.BackscanStats, s *Study) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 4.2: backscanning (paper: ~2/3 of clients respond; 3.5%% of random probes respond)\n")
	fmt.Fprintf(&b, "  clients probed:   %s\n", stats.Comma(int64(bs.ClientsProbed)))
	fmt.Fprintf(&b, "  client responses: %s (%s)\n",
		stats.Comma(int64(bs.ClientResponses)), stats.Pct(bs.ClientResponseRate(), 1))
	fmt.Fprintf(&b, "  random probes:    %s, responses %s (%s)\n",
		stats.Comma(int64(bs.RandomProbes)), stats.Comma(int64(bs.RandomResponses)),
		stats.Pct(bs.RandomResponseRate(), 2))
	fmt.Fprintf(&b, "  aliased /64s discovered: %d\n", len(bs.AliasedPrefixes))

	if s != nil && s.Hitlist != nil {
		known, novel := 0, 0
		//lint:ordered commutative known/novel counts; no order reaches the output
		for p := range bs.AliasedPrefixes {
			if s.Hitlist.Aliases.Contains(p) {
				known++
			} else {
				novel++
			}
		}
		fmt.Fprintf(&b, "  of which already in the Hitlist alias list: %d; newly discovered: %d (paper: 98%% known, plus novel)\n",
			known, novel)
	}

	hit, miss, random := Figure3(bs)
	fig3 := stats.NewTable("Figure 3: backscan entropy medians", "Series", "N", "Median entropy")
	for _, row := range []struct {
		name    string
		samples []float64
	}{{"NTP Hit", hit}, {"NTP Miss", miss}, {"Random", random}} {
		d := stats.NewDistribution(row.samples)
		fig3.AddRowf(row.name, d.N(), d.Median())
	}
	b.WriteString("\n")
	b.WriteString(fig3.String())
	return b.String()
}

// RenderTracking formats §5.1's prevalence numbers, Table 2, the §5.2
// class shares and one Figure 7 exemplar per class.
func RenderTracking(tr *tracking.Analysis, db *asdb.DB) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 5.1: EUI-64 prevalence\n")
	fmt.Fprintf(&b, "  EUI-64 addresses: %s (expected from randomness: %.0f)\n",
		stats.Comma(int64(tr.EUI64Addresses)), tr.ExpectedRandom)
	fmt.Fprintf(&b, "  unique embedded MACs: %s; unlisted share %s (paper: 73.9%%)\n",
		stats.Comma(int64(len(tr.MACs))), stats.Pct(tr.UnlistedShare(), 1))

	t2 := stats.NewTable("\nTable 2: MACs by manufacturer", "Manufacturer", "Count")
	rows := tr.Table2()
	if len(rows) > 10 {
		rows = rows[:10]
	}
	for _, r := range rows {
		t2.AddRow(r.Manufacturer, stats.Comma(int64(r.Count)))
	}
	b.WriteString(t2.String())

	fmt.Fprintf(&b, "\nSection 5.2: tracking classes (trackable MACs: %s = %s of all; paper: 8.7%%)\n",
		stats.Comma(int64(tr.Trackable)),
		stats.Pct(float64(tr.Trackable)/float64(max(1, len(tr.MACs))), 1))
	cls := stats.NewTable("", "Class", "Count", "Share", "Paper")
	paperShare := map[tracking.Class]string{
		tracking.MostlyStatic:       "86%",
		tracking.PrefixReassignment: "8%",
		tracking.MACReuse:           "0.01%",
		tracking.ProviderChange:     "5%",
		tracking.UserMovement:       "0.44%",
	}
	for c := tracking.MostlyStatic; c < tracking.NumClasses; c++ {
		cls.AddRow(c.String(), stats.Comma(int64(tr.ClassCounts[c])),
			stats.Pct(tr.ClassShare(c), 2), paperShare[c])
	}
	b.WriteString(cls.String())

	fmt.Fprintf(&b, "\nFigure 7 exemplars:\n")
	for c := tracking.PrefixReassignment; c < tracking.NumClasses; c++ {
		if ex := tr.Exemplar(c); ex != nil {
			b.WriteString(tracking.RenderTimeline(ex, db))
		}
	}
	return b.String()
}

// RenderGeolocation formats the §5.3 outcome.
func RenderGeolocation(g *GeolocationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 5.3: geolocation via wired-wireless MAC offset linkage\n")
	fmt.Fprintf(&b, "  wired MACs in corpus: %s\n", stats.Comma(int64(g.WiredMACs)))
	fmt.Fprintf(&b, "  per-OUI offsets inferred: %d (paper: 117 OUIs)\n", len(g.Offsets))
	fmt.Fprintf(&b, "  devices geolocated: %s (paper: 225,354; 75%% in DE from AVM CPE)\n",
		stats.Comma(int64(len(g.Located))))
	type cc struct {
		country string
		n       int
	}
	var counts []cc
	for c, n := range g.Countries {
		counts = append(counts, cc{c, n})
	}
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].n != counts[j].n {
			return counts[i].n > counts[j].n
		}
		return counts[i].country < counts[j].country
	})
	total := len(g.Located)
	for i, c := range counts {
		if i >= 5 {
			break
		}
		fmt.Fprintf(&b, "    %s: %d (%s)\n", c.country, c.n,
			stats.Pct(float64(c.n)/float64(max(1, total)), 1))
	}
	return b.String()
}

// ReleaseNTP renders the NTP corpus in the paper's ethical /48-truncated
// release format.
func (s *Study) ReleaseNTP() (string, error) {
	if s.NTP == nil {
		return "", fmt.Errorf("hitlist6: passive collection has not run")
	}
	return releaseDataset(s.NTP), nil
}

// TopCountries returns the geolocated query origins (§3: top-5 countries
// carried 76% of the corpus).
func (s *Study) TopCountries(n int) ([]geodb.CountryCount, error) {
	if s.NTP == nil {
		return nil, fmt.Errorf("hitlist6: passive collection has not run")
	}
	counts := make(map[string]int)
	s.NTP.Each(func(a addr.Addr) bool {
		if c := s.World.Geo.Country(a); c != "" {
			counts[c]++
		}
		return true
	})
	return geodb.TopCountries(counts, n), nil
}

// Vendors exposes the embedded OUI registry (for examples that want to
// resolve manufacturers).
//
//lint:api the Study's public figure API, which the paper-shape tests drive
func (s *Study) Vendors() *oui.Registry { return s.World.OUI }

// StudyWindow returns the passive collection window.
//
//lint:api the Study's public figure API, which the paper-shape tests drive
func (s *Study) StudyWindow() (start, end time.Time) {
	return s.World.Origin, s.World.End
}
