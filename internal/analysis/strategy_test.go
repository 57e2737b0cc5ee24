package analysis

import (
	"math/rand"
	"strings"
	"testing"

	"hitlist6/internal/addr"
	"hitlist6/internal/hitlist"
)

func TestDetectBimodal(t *testing.T) {
	// Clearly bimodal: half around 0.5, half around 0.85.
	var vals []float64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			vals = append(vals, 0.50+0.03*rng.Float64())
		} else {
			vals = append(vals, 0.85+0.03*rng.Float64())
		}
	}
	ok, lo, hi := detectBimodal(vals)
	if !ok {
		t.Fatal("bimodal distribution not detected")
	}
	if lo < 0.45 || lo > 0.58 || hi < 0.82 || hi > 0.92 {
		t.Errorf("modes: %.3f / %.3f", lo, hi)
	}

	// Unimodal: one tight cluster.
	vals = vals[:0]
	for i := 0; i < 200; i++ {
		vals = append(vals, 0.85+0.02*rng.Float64())
	}
	if ok, _, _ := detectBimodal(vals); ok {
		t.Error("unimodal distribution flagged bimodal")
	}

	// Too few samples.
	if ok, _, _ := detectBimodal([]float64{0.1, 0.9}); ok {
		t.Error("tiny sample flagged bimodal")
	}

	// Imbalanced: 95/5 split is not bimodal by our share rule.
	vals = vals[:0]
	for i := 0; i < 190; i++ {
		vals = append(vals, 0.85)
	}
	for i := 0; i < 10; i++ {
		vals = append(vals, 0.3)
	}
	if ok, _, _ := detectBimodal(vals); ok {
		t.Error("imbalanced split flagged bimodal")
	}
}

func TestInferStrategiesJioSignature(t *testing.T) {
	db := testDB(t)
	d := hitlist.NewDataset("jio-like")
	rng := rand.New(rand.NewSource(2))
	// AS100: 60% full random, 40% low-4 random — the Jio signature.
	for i := 0; i < 300; i++ {
		var iid uint64
		if i%5 < 3 {
			iid = rng.Uint64()
		} else {
			iid = rng.Uint64() & 0xffffffff
			if iid < 0x10000000 {
				iid |= 0x10000000 // keep it out of the low-byte bucket
			}
		}
		d.Add(addr.FromParts(0x2400_0100_0000_0000|uint64(i), iid))
	}
	// AS200: operator low-byte only.
	for i := 0; i < 50; i++ {
		d.Add(addr.FromParts(0x2400_0200_0000_0000|uint64(i), uint64(1+i%5)))
	}

	profiles := InferStrategiesSidecar(BuildSidecar(d, db, 1), db, 0, 1)
	if len(profiles) != 2 {
		t.Fatalf("profiles: %d", len(profiles))
	}
	jio := profiles[0]
	if jio.ASN != 100 {
		t.Fatalf("top AS: %d", jio.ASN)
	}
	if jio.FullRandShare < 0.4 || jio.FullRandShare > 0.8 {
		t.Errorf("full-rand share: %.2f", jio.FullRandShare)
	}
	if jio.Low4RandShare < 0.25 || jio.Low4RandShare > 0.55 {
		t.Errorf("low4-rand share: %.2f", jio.Low4RandShare)
	}
	if !jio.Bimodal {
		t.Error("Jio-style AS not flagged bimodal")
	}
	ops := profiles[1]
	if ops.LowByteShare < 0.9 {
		t.Errorf("operator AS low-byte share: %.2f", ops.LowByteShare)
	}
	if ops.Bimodal {
		t.Error("operator AS flagged bimodal")
	}
}

func TestInferStrategiesEUI64(t *testing.T) {
	db := testDB(t)
	d := hitlist.NewDataset("eui")
	for i := 0; i < 30; i++ {
		m := addr.MAC{0xc8, 0x0e, 0x14, byte(i), 1, 2}
		d.Add(addr.FromParts(0x2400_0300_0000_0000, uint64(addr.EUI64FromMAC(m))))
	}
	profiles := InferStrategiesSidecar(BuildSidecar(d, db, 1), db, 1, 1)
	if len(profiles) != 1 {
		t.Fatalf("profiles: %d", len(profiles))
	}
	if profiles[0].EUI64Share < 0.99 {
		t.Errorf("EUI-64 share: %.2f", profiles[0].EUI64Share)
	}
}

func TestRenderStrategies(t *testing.T) {
	out := RenderStrategies([]StrategyProfile{{
		ASN: 55836, Name: "Reliance Jio", Count: 1000,
		FullRandShare: 0.6, Low4RandShare: 0.33,
		Bimodal: true, ModeLow: 0.5, ModeHigh: 0.86,
	}})
	for _, want := range []string{"Reliance Jio", "Section 4.3", "yes (0.50 / 0.86)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
