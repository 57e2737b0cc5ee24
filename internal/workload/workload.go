// Package workload generates named, seeded scenario streams for the
// matrix harness: the adversarial and regime-shifted worlds the
// standing determinism invariant (same seed ⇒ byte-identical corpus and
// report across checkpoint/restore splits) must survive, not just the one
// paper-shaped stream the benches replay.
//
// Every profile is a pure function of (seed, Size): no wall clock, no
// global state, no ordering dependence on anything but the seed. World-
// backed profiles delegate to simnet (itself deterministic in its
// seed); synthetic profiles (collision) derive every address and
// timestamp from seeded counters. That purity is what lets the matrix
// runner assert byte-identical results across the straight run and
// the checkpoint/restore splits — any divergence is a pipeline bug, never
// generator noise.
//
// The profile catalog (see Profiles) covers the regimes the ingest,
// durable-corpus and analysis layers were each built under pressure
// from:
//
//   - paper: today's default world, the baseline every other profile's
//     trajectory is read against.
//   - churn: privacy-address-heavy, fast IID turnover — unique-address
//     growth far outpaces sightings, stressing index growth paths.
//   - eui64-dense: EUI-64-saturated — the tracked-IID and span-slab
//     paths carry the corpus instead of sitting at the ~10% margins.
//   - outage-storm: bursty per-AS silence windows engineered around
//     outage.Detect's bin and run-length boundaries.
//   - collision: addresses engineered to share open-addressing home
//     slots — worst-case probe runs.
//   - backpressure: arrival far above drain rate at tiny queue depths,
//     exercising both admission policies (block and drop-on-full).
package workload

import (
	"fmt"
	"time"

	"hitlist6/internal/asdb"
	"hitlist6/internal/ingest"
	"hitlist6/internal/simnet"
)

// NumVantages is the vantage-server spread stamped onto generated
// events, matching the paper's 27-server deployment.
const NumVantages = 27

// Size scales a scenario: the simnet site multiplier and study-window
// length for world-backed profiles, and the proportional event-count
// knob for synthetic ones. Profiles may clamp (outage-storm needs
// enough days to fit its engineered windows).
type Size struct {
	// Scale multiplies every AS's site count (and the synthetic
	// profiles' address counts proportionally).
	Scale float64
	// Days is the study window length.
	Days int
}

// SizeSmall is the CI/matrix default: big enough that every profile's
// structural pressure shows, small enough for race-enabled sweeps.
var SizeSmall = Size{Scale: 0.02, Days: 8}

func (s Size) validate() error {
	if s.Scale <= 0 {
		return fmt.Errorf("workload: Scale must be positive, got %g", s.Scale)
	}
	if s.Days <= 0 {
		return fmt.Errorf("workload: Days must be positive, got %d", s.Days)
	}
	return nil
}

// Stream is one generated scenario stream: the fully resolved events
// plus the window and routing metadata the matrix runner needs to bin
// outages and render the scenario report.
type Stream struct {
	Profile string
	Seed    int64
	Events  []ingest.Event
	// Origin/End bound the stream's window; the outage stage bins over
	// [Origin, End] in window mode.
	Origin, End time.Time
	// Bin is the scenario's outage bin width.
	Bin time.Duration
	// ASDB resolves events to origin ASes; nil for synthetic streams
	// whose addresses are deliberately unrouted.
	ASDB *asdb.DB
}

// RunHints tune the pipeline shape the matrix runner uses for a
// profile. Zero values select the pipeline defaults.
type RunHints struct {
	// BatchSize overrides ingest.Config.BatchSize.
	BatchSize int
	// QueueDepth overrides ingest.Config.QueueDepth.
	QueueDepth int
	// DropRun asks the matrix for an additional load-shedding cell
	// (DropOnFull admission) whose drop accounting is recorded as a
	// metric — never part of the determinism assertion, since which
	// events are shed is timing-dependent by design.
	DropRun bool
}

// Profile is one named scenario generator.
type Profile struct {
	Name        string
	Description string
	// Durable marks profiles whose matrix run also exercises the
	// checkpoint-mid-stream → restore → finish split.
	Durable bool
	// Tiered marks profiles whose matrix run additionally exercises the
	// larger-than-RAM corpus paths: a checkpoint-mid-stream →
	// delta-restore leg and the tier legs (the corpus re-read through
	// internal/pager fully resident, budget-constrained, and all-cold).
	Tiered bool
	Hints  RunHints

	generate func(seed int64, size Size) (*Stream, error)
}

// Stream generates the profile's deterministic event stream for the
// given seed and size.
func (p *Profile) Stream(seed int64, size Size) (*Stream, error) {
	if err := size.validate(); err != nil {
		return nil, err
	}
	st, err := p.generate(seed, size)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", p.Name, err)
	}
	st.Profile = p.Name
	st.Seed = seed
	if len(st.Events) == 0 {
		return nil, fmt.Errorf("workload: %s: generated an empty stream (seed %d, %+v)", p.Name, seed, size)
	}
	return st, nil
}

// profiles is the ordered catalog; order is the order list/run/report
// present scenarios in.
var profiles = []*Profile{
	{
		Name: "paper",
		Description: "The default paper-shaped world at matrix size: the baseline " +
			"every other profile's checksum and trajectory is read against.",
		Durable:  true,
		generate: paperStream,
	},
	{
		Name: "churn",
		Description: "Privacy-address-heavy world with fast IID turnover and daily " +
			"prefix rotation: unique-address growth far outpaces repeat sightings, " +
			"stressing index growth and the singleton-IID promotion path.",
		Durable:  true,
		generate: churnStream,
	},
	{
		Name: "eui64-dense",
		Description: "EUI-64-saturated world (IoT-heavy client mixes, EUI-64 CPE, " +
			"extra MAC reuse): tracked IIDs and the shared span slab carry the " +
			"corpus instead of sitting at the margins.",
		Durable:  true,
		generate: eui64DenseStream,
	},
	{
		Name: "outage-storm",
		Description: "Bursty per-AS silence windows engineered around the outage " +
			"detector's boundaries: bin-aligned multi-bin outages that must trip " +
			"Detect, single-bin dips that must not, and windows ending exactly on " +
			"bin edges.",
		generate: outageStormStream,
	},
	{
		Name: "collision",
		Description: "Synthetic stream whose addresses share low hash bits: " +
			"worst-case open-addressing probe runs in the collector index " +
			"(the cluster shares one home slot).",
		generate: collisionStream,
	},
	{
		Name: "cold-replay",
		Description: "Paper-shaped world replayed twice — a full pass, then a " +
			"re-observation pass over the same addresses in a second window: " +
			"re-sightings dominate, so delta checkpoints carry only dirtied " +
			"blocks and the tier legs re-read a mostly-multi-sighting corpus " +
			"resident, budget-constrained, and all-cold.",
		Durable:  true,
		Tiered:   true,
		generate: coldReplayStream,
	},
	{
		Name: "backpressure",
		Description: "Burst arrival far above drain rate at tiny queue depths: " +
			"block admission for the determinism leg, plus a load-shedding cell " +
			"whose drop accounting is recorded (fed = enqueued + dropped).",
		Hints:    RunHints{BatchSize: 16, QueueDepth: 1, DropRun: true},
		generate: backpressureStream,
	},
}

// Profiles returns the scenario catalog in presentation order. Callers
// must not mutate the returned profiles.
func Profiles() []*Profile {
	out := make([]*Profile, len(profiles))
	copy(out, profiles)
	return out
}

// Names returns the profile names in catalog order.
func Names() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}

// Lookup resolves a profile by name.
func Lookup(name string) (*Profile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	return nil, false
}

// materialize builds the world and resolves its query stream into
// events, stamping the deterministic vantage spread.
func materialize(cfg simnet.Config, bin time.Duration) (*Stream, error) {
	w, err := simnet.Build(cfg)
	if err != nil {
		return nil, err
	}
	events := make([]ingest.Event, 0, 4096)
	i := 0
	w.GenerateQueries(func(q simnet.Query) {
		events = append(events, ingest.Event{
			Addr:   q.Addr,
			Time:   q.Time.Unix(),
			Server: int32(i % NumVantages),
		})
		i++
	})
	return &Stream{
		Events: events,
		Origin: w.Origin,
		End:    w.End,
		Bin:    bin,
		ASDB:   w.ASDB,
	}, nil
}

// paperStream is today's default world at matrix size.
func paperStream(seed int64, size Size) (*Stream, error) {
	cfg := simnet.DefaultConfig(seed, size.Scale)
	cfg.Days = size.Days
	return materialize(cfg, 6*time.Hour)
}
