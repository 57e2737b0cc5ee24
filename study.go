// Package hitlist6 reproduces "IPv6 Hitlists at Scale: Be Careful What
// You Wish For" (Rye & Levin, SIGCOMM 2023) as a library: a passive
// NTP-Pool-based IPv6 address collection study over a simulated Internet,
// compared against active-measurement hitlists, with the paper's full
// privacy analysis (EUI-64 tracking and geolocation).
//
// The entry point is Study:
//
//	study, err := hitlist6.NewStudy(hitlist6.DefaultConfig())
//	if err != nil { ... }
//	if err := study.Run(); err != nil { ... }
//	fmt.Println(study.Table1().Render())
//
// Every experiment of the paper's evaluation is a method on Study; see
// EXPERIMENTS.md for the full index.
package hitlist6

import (
	"fmt"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/analysis"
	"hitlist6/internal/collector"
	"hitlist6/internal/fold"
	"hitlist6/internal/geodb"
	"hitlist6/internal/geoloc"
	"hitlist6/internal/hitlist"
	"hitlist6/internal/ingest"
	"hitlist6/internal/ntppool"
	"hitlist6/internal/scan"
	"hitlist6/internal/simnet"
	"hitlist6/internal/telemetry"
	"hitlist6/internal/tracking"
	"hitlist6/internal/wigle"
)

// Config controls a study run.
type Config struct {
	// Seed drives all randomness; a given seed reproduces the full study
	// bit-for-bit.
	Seed int64
	// Scale multiplies the simulated population (1.0 ≈ the default study
	// size; tests use 0.02–0.1).
	Scale float64
	// Days is the passive collection window (the paper ran 218 days,
	// 25 Jan – 31 Aug 2022).
	Days int
	// SliceDay is the study day used for the single-day analyses
	// (Figures 4b and 5; the paper uses 1 July 2022, day 157).
	SliceDay int
	// HitlistRounds is the number of active hitlist snapshot campaigns.
	HitlistRounds int
	// BackscanDays is the length of the backscanning campaign, run at
	// the end of the window (the paper ran one week in January 2023).
	BackscanDays int
	// AnalysisWorkers is the per-fold worker count of the parallel
	// analysis engine: every figure, Table 1, the strategy inference,
	// tracking and Report's section orchestration each fan out across
	// this many workers, with the engine's total helper goroutines
	// additionally capped near GOMAXPROCS so nested folds never
	// multiply (see internal/fold). 0 selects GOMAXPROCS. Results are
	// bit-identical for every worker count, so this only affects speed.
	AnalysisWorkers int
	// Telemetry, when non-nil, is the metrics registry the study
	// instruments itself in: CollectPassive's ingest pipeline registers
	// its per-batch/per-stage families there (see ingest.Config.Registry),
	// Report times each section into report_section_seconds, and NewStudy
	// installs the process-wide fold dispatch timing hook feeding
	// fold_dispatch_seconds. A daemon exposes the registry on /metrics;
	// nil (the default) leaves the study entirely uninstrumented — no
	// timing reads on any analysis path and no global hook installed.
	// Instrumentation never changes results: the golden report remains
	// byte-identical with and without a registry.
	Telemetry *telemetry.Registry
}

// DefaultConfig returns the paper-shaped study at moderate scale.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		Scale:         1.0,
		Days:          218,
		SliceDay:      157,
		HitlistRounds: 4,
		BackscanDays:  7,
	}
}

// Study owns a full reproduction run: the simulated world, the passive
// collection, the comparison datasets and every analysis.
type Study struct {
	Config Config
	World  *simnet.World
	Pool   *ntppool.Pool

	// Collector is the passive corpus, moved out of the pass's collector:
	// the study's one copy, which IIDs indexes and NTP adopts.
	Collector *collector.Records
	DayStart  time.Time
	RunStats  ntppool.RunStats

	// IIDs is Collector's IID table, folded once after collection for
	// every reader of per-IID state: Figure 2b, tracking, the report.
	IIDs *collector.IIDTable

	// NTP, Hitlist and CAIDA are the three Table 1 datasets. NTPDay is
	// the single-day NTP slice used by Figures 4b and 5.
	NTP     *hitlist.Dataset
	NTPDay  *hitlist.Dataset
	Hitlist *hitlist.ActiveResult
	CAIDA   *hitlist.Dataset

	// backscanClients is the study's one backscan campaign, recorded by
	// the pass from backscanFrom on (see CollectPassive).
	backscanFrom    time.Time
	backscanClients []scan.Sighting
}

// NewStudy builds the simulated Internet for a configuration.
func NewStudy(cfg Config) (*Study, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("hitlist6: Days must be positive")
	}
	if cfg.AnalysisWorkers < 0 {
		return nil, fmt.Errorf("hitlist6: AnalysisWorkers must be >= 0")
	}
	if cfg.SliceDay < 0 || cfg.SliceDay >= cfg.Days {
		cfg.SliceDay = cfg.Days / 2
	}
	wcfg := simnet.DefaultConfig(cfg.Seed, cfg.Scale)
	wcfg.Days = cfg.Days
	w, err := simnet.Build(wcfg)
	if err != nil {
		return nil, err
	}
	pool, err := ntppool.New(ntppool.StudyVantages())
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry != nil {
		// The fold timing hook is process-wide (see fold.SetTiming): one
		// histogram sees every dispatch — figures, tracking, report
		// sections — which is exactly the granularity a daemon's /metrics
		// wants. Re-registration is idempotent, so multiple studies
		// sharing a registry share the series.
		h := cfg.Telemetry.Histogram("fold_dispatch_seconds",
			"Wall time of one parallel fold dispatch (any analysis fan-out).",
			telemetry.DurationBuckets())
		fold.SetTiming(func(jobs int, wall time.Duration) { h.ObserveDuration(wall) })
	}
	return &Study{
		Config:   cfg,
		World:    w,
		Pool:     pool,
		DayStart: w.Origin.AddDate(0, 0, cfg.SliceDay),
	}, nil
}

// CollectPassive replays the study window's NTP traffic through the
// pool into the ingest pipeline and materializes the NTP datasets. The
// replay producer is sequential (vantage selection is order-dependent
// round-robin); the pipeline's worker folds the sightings into its one
// corpus and runs the day-slice stage beside the replay, and the corpus
// is identical to a serial replay's.
//
// This is the study's single pass over the world: the full corpus, the
// single-day slice and the backscan campaign's clients all fall out of
// it, so every later analysis — Tracking, Geolocation, Backscan, the
// figures — reads pass outputs without replaying.
func (s *Study) CollectPassive() error {
	dayEnd := s.DayStart.Add(24 * time.Hour)
	cfg := ingest.DefaultConfig()
	cfg.Registry = s.Config.Telemetry
	cfg.Stages = []ingest.StageFactory{
		ingest.DaySlice(s.DayStart.Unix(), dayEnd.Unix()),
	}

	pipe, err := ingest.New(cfg)
	if err != nil {
		return fmt.Errorf("hitlist6: ingest pipeline: %w", err)
	}
	// The tap keeps the backscan window in generation order; selecting
	// its vantages after the pass is the Select sequence a replay makes.
	bcfg := s.backscanWindow()
	var window []scan.Sighting
	s.RunStats = ntppool.RunIngest(s.World, s.Pool, pipe, func(q simnet.Query) {
		if !q.Time.Before(bcfg.Start) {
			window = append(window, scan.Sighting{At: q.Time.UnixNano(), Addr: q.Addr})
		}
	})
	s.backscanFrom = bcfg.Start
	s.backscanClients = scan.BackscanClients(window, poolAdapter{s.Pool, s.World.Geo}, bcfg)
	s.Collector = pipe.Close().TakeRecords()
	day, ok := pipe.Stage("dayslice").(*ingest.DaySliceStage)
	if !ok {
		return fmt.Errorf("hitlist6: ingest pipeline returned no day-slice stage")
	}
	s.IIDs = s.Collector.IIDTable()
	s.NTP = hitlist.FromRecords("NTP Pool (passive)", s.Collector)
	s.NTPDay = hitlist.FromRecords("NTP Pool (1-day slice)", day.Col.TakeRecords())
	return nil
}

// BuildActive runs the two active campaigns: the IPv6-Hitlist-style
// pipeline and the CAIDA routed-/48 campaign.
func (s *Study) BuildActive() error {
	acfg := hitlist.DefaultActiveConfig(s.World.Origin, s.World.End, uint64(s.Config.Seed)+0xac)
	acfg.Rounds = s.Config.HitlistRounds
	res, err := hitlist.BuildActiveHitlist(s.World, acfg)
	if err != nil {
		return err
	}
	s.Hitlist = res

	caida, err := hitlist.BuildCAIDA48(s.World, hitlist.CAIDAConfig{
		At:        s.World.Origin.AddDate(0, 0, min(30, s.Config.Days/2)),
		SourceASN: 7922,
		Seed:      uint64(s.Config.Seed) + 0xca1da,
	})
	if err != nil {
		return err
	}
	s.CAIDA = caida
	return nil
}

// Run executes the whole study: the single passive-collection pass,
// then both active campaigns.
func (s *Study) Run() error {
	if err := s.CollectPassive(); err != nil {
		return err
	}
	return s.BuildActive()
}

func (s *Study) requireDatasets() error {
	if s.NTP == nil || s.Hitlist == nil || s.CAIDA == nil {
		return fmt.Errorf("hitlist6: call Run (or CollectPassive+BuildActive) first")
	}
	return nil
}

// analysisWorkers resolves Config.AnalysisWorkers (0 = GOMAXPROCS).
func (s *Study) analysisWorkers() int {
	return fold.Workers(s.Config.AnalysisWorkers)
}

// sidecar builds a dataset's attribute sidecar on the study's worker
// count.
func (s *Study) sidecar(d *hitlist.Dataset) *analysis.Sidecar {
	return analysis.BuildSidecar(d, s.World.ASDB, s.analysisWorkers())
}

// Table1 computes the dataset comparison (paper Table 1).
func (s *Study) Table1() (*analysis.Table1, error) {
	if err := s.requireDatasets(); err != nil {
		return nil, err
	}
	w := s.analysisWorkers()
	return analysis.ComputeTable1Sidecar(
		s.sidecar(s.NTP), s.sidecar(s.Hitlist.Dataset), s.sidecar(s.CAIDA), w), nil
}

// Figure1 computes the IID entropy CDFs of the three datasets and their
// intersections.
func (s *Study) Figure1() (*analysis.Figure1, error) {
	if err := s.requireDatasets(); err != nil {
		return nil, err
	}
	w := s.analysisWorkers()
	return analysis.ComputeFigure1Sidecar(
		analysis.BuildSidecar(s.NTP, nil, w),
		analysis.BuildSidecar(s.Hitlist.Dataset, nil, w),
		analysis.BuildSidecar(s.CAIDA, nil, w), w), nil
}

// Figure2a computes the address-lifetime CCDF.
func (s *Study) Figure2a() (*analysis.Figure2a, error) {
	if s.Collector == nil {
		return nil, fmt.Errorf("hitlist6: passive collection has not run")
	}
	return analysis.ComputeFigure2aWorkers(s.Collector, s.analysisWorkers()), nil
}

// Figure2b computes the IID-lifetime CDFs by entropy class.
//
//lint:api the Study's public figure API, which the paper-shape tests drive
func (s *Study) Figure2b() (*analysis.Figure2b, error) {
	if s.IIDs == nil {
		return nil, fmt.Errorf("hitlist6: passive collection has not run")
	}
	return analysis.ComputeFigure2bWorkers(s.IIDs, s.analysisWorkers()), nil
}

// Figure4a computes the per-AS entropy curves over the full window.
//
//lint:api the Study's public figure API, which the paper-shape tests drive
func (s *Study) Figure4a(topN int) ([]analysis.ASEntropy, error) {
	if s.NTP == nil {
		return nil, fmt.Errorf("hitlist6: passive collection has not run")
	}
	w := s.analysisWorkers()
	return analysis.TopASEntropySidecar(s.sidecar(s.NTP), s.World.ASDB, topN, w), nil
}

// Figure4b computes the per-AS entropy curves for the single-day slice.
//
//lint:api the Study's public figure API, which the paper-shape tests drive
func (s *Study) Figure4b(topN int) ([]analysis.ASEntropy, error) {
	if s.NTPDay == nil {
		return nil, fmt.Errorf("hitlist6: passive collection has not run")
	}
	w := s.analysisWorkers()
	return analysis.TopASEntropySidecar(s.sidecar(s.NTPDay), s.World.ASDB, topN, w), nil
}

// Strategies runs the §4.3 per-AS addressing-strategy inference over the
// full NTP corpus (top-N ASes).
//
//lint:api the Study's public figure API, which the paper-shape tests drive
func (s *Study) Strategies(topN int) ([]analysis.StrategyProfile, error) {
	if s.NTP == nil {
		return nil, fmt.Errorf("hitlist6: passive collection has not run")
	}
	w := s.analysisWorkers()
	return analysis.InferStrategiesSidecar(s.sidecar(s.NTP), s.World.ASDB, topN, w), nil
}

// Figure5 computes the seven-category addressing breakdown of the NTP
// day slice versus the active hitlist.
func (s *Study) Figure5() (*analysis.Figure5, error) {
	if err := s.requireDatasets(); err != nil {
		return nil, err
	}
	w := s.analysisWorkers()
	return analysis.ComputeFigure5Sidecar(
		s.sidecar(s.NTPDay), s.sidecar(s.Hitlist.Dataset), w), nil
}

// poolAdapter bridges the ntppool geo selector to scan.PoolSelector.
type poolAdapter struct {
	p   *ntppool.Pool
	geo *geodb.DB
}

func (a poolAdapter) Select(client addr.Addr) int { return a.p.Select(a.geo.Country(client)).ID }

// backscanWindow is the single owner of the Config.BackscanDays rule:
// the campaign runs over the final BackscanDays of the window (7 when
// the value is not positive), clamped to the world's origin.
func (s *Study) backscanWindow() scan.BackscanConfig {
	days := s.Config.BackscanDays
	if days <= 0 {
		days = 7
	}
	start := s.World.End.AddDate(0, 0, -days)
	if start.Before(s.World.Origin) {
		start = s.World.Origin
	}
	return scan.DefaultBackscanConfig(start, s.World.End, s.Config.Seed+0xb5)
}

// Backscan runs the §4.2 backscanning campaign over the final
// BackscanDays of the window and returns its statistics together with
// Figure 3's entropy distributions. Every call probes the clients
// CollectPassive recorded; a BackscanDays raised since is an error.
func (s *Study) Backscan() (*scan.BackscanStats, error) {
	if s.Collector == nil {
		return nil, fmt.Errorf("hitlist6: passive collection has not run")
	}
	cfg := s.backscanWindow()
	if cfg.Start.Before(s.backscanFrom) {
		return nil, fmt.Errorf("hitlist6: BackscanDays %d starts before the backscan window CollectPassive recorded (%s)",
			s.Config.BackscanDays, s.backscanFrom.Format(time.DateOnly))
	}
	return scan.Backscan(s.World, s.backscanClients, cfg), nil
}

// Figure3 derives the hit/miss/random entropy distributions from a
// backscan campaign.
func Figure3(stats *scan.BackscanStats) (hit, miss, random []float64) {
	for _, o := range stats.Outcomes {
		e := o.Client.IID().NormalizedEntropy()
		if o.ClientResponded {
			hit = append(hit, e)
		} else {
			miss = append(miss, e)
		}
		if o.RandomResponded {
			random = append(random, o.Random.IID().NormalizedEntropy())
		}
	}
	return hit, miss, random
}

// Tracking runs the §5.1/§5.2 EUI-64 analysis over the passive corpus —
// the ingest pipeline's output, consumed directly with no
// further pass over the world.
func (s *Study) Tracking() (*tracking.Analysis, error) {
	if s.IIDs == nil {
		return nil, fmt.Errorf("hitlist6: passive collection has not run")
	}
	return tracking.AnalyzeWorkers(s.IIDs, s.World.ASDB, s.World.Geo, s.World.OUI,
		s.analysisWorkers()), nil
}

// GeolocationResult is the §5.3 outcome.
type GeolocationResult struct {
	// WiredMACs is how many unique EUI-64 MACs were available as input.
	WiredMACs int
	// Offsets are the inferred per-OUI wired-to-wireless offsets.
	Offsets []geoloc.OffsetCandidate
	// Located are the successful linkages.
	Located []geoloc.Geolocated
	// Countries tallies located devices per (reverse-geocoded) country.
	Countries map[string]int
}

// Geolocation runs the §5.3 pipeline: build the wardriving database from
// the world, infer per-OUI offsets from the corpus's EUI-64 MACs, and
// link them to geolocated BSSIDs. minPairs scales the paper's 500-pair
// threshold; pass 0 for an automatic corpus-proportional choice.
func (s *Study) Geolocation(minPairs int) (*GeolocationResult, error) {
	tr, err := s.Tracking()
	if err != nil {
		return nil, err
	}
	return s.geolocationFrom(tr, minPairs)
}

// geolocationFrom is Geolocation over an already computed tracking
// analysis, so Report can share one analysis between the §5.2 and §5.3
// sections instead of running it twice.
func (s *Study) geolocationFrom(tr *tracking.Analysis, minPairs int) (*GeolocationResult, error) {
	wired := make([]addr.MAC, 0, len(tr.MACs))
	for _, m := range tr.MACs {
		wired = append(wired, m.MAC)
	}
	if minPairs <= 0 {
		minPairs = len(wired) / 500
		if minPairs < 3 {
			minPairs = 3
		}
	}
	wdb := wigle.Build(s.World, wigle.DefaultBuildConfig(s.Config.Seed+0x919))
	offsets := geoloc.InferOffsets(wired, wdb, minPairs)
	located := geoloc.Apply(wired, offsets, wdb)
	return &GeolocationResult{
		WiredMACs: len(wired),
		Offsets:   offsets,
		Located:   located,
		Countries: geoloc.CountryCount(located, wigle.NearestCountry),
	}, nil
}
