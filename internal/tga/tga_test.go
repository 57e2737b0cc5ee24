package tga

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/simnet"
)

// fixedSeeds builds a training set with a crisp structure: /64s in one
// /48, IIDs of the form 0000:0000:00xx:000y (nibbles 0-11 zero except
// positions 10-11 variable, 12-14 zero, 15 variable).
func fixedSeeds() []addr.Addr {
	var out []addr.Addr
	for i := 0; i < 8; i++ {
		iid := uint64(0x10+i)<<16 | uint64(1+i%4)
		out = append(out, addr.FromParts(0x20010db8_0001_0000+uint64(i%2), iid))
	}
	return out
}

func TestNewEntropyIPValidation(t *testing.T) {
	if _, err := NewEntropyIP(nil); err == nil {
		t.Error("empty training set should fail")
	}
	if _, err := NewEntropyIP(fixedSeeds()[:1]); err == nil {
		t.Error("single seed should fail")
	}
}

func TestEntropyIPModelStructure(t *testing.T) {
	m, err := NewEntropyIP(fixedSeeds())
	if err != nil {
		t.Fatal(err)
	}
	if m.TrainedOn() != 8 {
		t.Errorf("TrainedOn: %d", m.TrainedOn())
	}
	segs := m.Segments()
	if segs == "" {
		t.Fatal("no segments")
	}
	// The top of the IID (all zeros in training) must be a fixed segment.
	if segs[0] != 'F' {
		t.Errorf("leading segment should be fixed: %s", segs)
	}
}

func TestEntropyIPGenerateRespectsStructure(t *testing.T) {
	seeds := fixedSeeds()
	m, err := NewEntropyIP(seeds)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cands := m.Generate(64, rng)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	knownP64 := map[addr.Prefix64]bool{}
	for _, s := range seeds {
		knownP64[s.P64()] = true
	}
	seen := map[addr.Addr]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("duplicate candidate %s", c)
		}
		seen[c] = true
		if !knownP64[c.P64()] {
			t.Fatalf("candidate %s outside known /64s", c)
		}
		// The fixed high nibbles of the IID must be preserved: training
		// IIDs never exceeded 0x003f_000f.
		if uint64(c.IID())&^0xff_ffff != 0 {
			t.Fatalf("candidate %s violates learned fixed structure", c)
		}
	}
}

func TestEntropyIPGenerateDeterministic(t *testing.T) {
	m, err := NewEntropyIP(fixedSeeds())
	if err != nil {
		t.Fatal(err)
	}
	a := m.Generate(32, rand.New(rand.NewSource(5)))
	b := m.Generate(32, rand.New(rand.NewSource(5)))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("candidate %d differs", i)
		}
	}
}

func TestEntropyIPGenerateBounds(t *testing.T) {
	m, err := NewEntropyIP(fixedSeeds())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	if got := m.Generate(0, rng); got != nil {
		t.Errorf("n=0: %v", got)
	}
	if got := m.Generate(-3, rng); got != nil {
		t.Errorf("n<0: %v", got)
	}
	if got := m.Generate(10, rng); len(got) > 10 {
		t.Errorf("overproduced: %d", len(got))
	}
}

// TestEntropyIPAgainstWorld trains on passive observations from one AS
// and checks the model emits plausible candidates (the pipeline use).
func TestEntropyIPAgainstWorld(t *testing.T) {
	cfg := simnet.DefaultConfig(77, 0.05)
	cfg.Days = 15
	w, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seeds []addr.Addr
	at := w.Origin.Add(24 * time.Hour)
	for _, d := range w.Devices() {
		if len(seeds) >= 200 {
			break
		}
		seeds = append(seeds, d.AddressAt(at))
	}
	m, err := NewEntropyIP(seeds)
	if err != nil {
		t.Fatal(err)
	}
	cands := m.Generate(500, rand.New(rand.NewSource(9)))
	if len(cands) < 100 {
		t.Fatalf("only %d candidates", len(cands))
	}
	// All candidates must be routable in the world (they reuse known
	// /64s, which are routed by construction).
	for _, c := range cands[:50] {
		if w.ASDB.Lookup(c) == nil {
			t.Fatalf("candidate %s unrouted", c)
		}
	}
}

// TrainedOn returns the training set size.
func (m *EntropyIP) TrainedOn() int { return m.trained }

// Segments returns a human-readable model summary ("F" fixed, "V"
// variable), e.g. "F[0,8) V[8,16)".
func (m *EntropyIP) Segments() string {
	out := ""
	for _, s := range m.segments {
		kind := "V"
		if s.fixed {
			kind = "F"
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s[%d,%d)", kind, s.lo, s.hi)
	}
	return out
}
