package addr

import (
	"math/rand"
	"testing"
)

func benchAddrs(n int) []Addr {
	rng := rand.New(rand.NewSource(1))
	out := make([]Addr, n)
	for i := range out {
		out[i] = FromParts(rng.Uint64(), rng.Uint64())
	}
	return out
}

func BenchmarkParse(b *testing.B) {
	cases := []string{
		"2001:db8::1",
		"2001:db8:abcd:ef01:2345:6789:abcd:ef01",
		"::ffff:192.168.1.1",
		"fe80::200:5aee:feaa:20a2",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(cases[i%len(cases)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkString(b *testing.B) {
	addrs := benchAddrs(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = addrs[i%len(addrs)].String()
	}
}

// BenchmarkNormalizedEntropy cycles 1 Mi distinct random IIDs, so the
// branch predictor cannot learn their nibble patterns as it would a few
// thousand, and the figure is what a corpus of real IIDs costs.
func BenchmarkNormalizedEntropy(b *testing.B) {
	addrs := benchAddrs(1 << 20)
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += addrs[i%len(addrs)].IID().NormalizedEntropy()
	}
	entropySink = acc
}

var entropySink float64

func BenchmarkEUI64RoundTrip(b *testing.B) {
	m := MAC{0xc8, 0x0e, 0x14, 1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iid := EUI64FromMAC(m)
		got, err := MACFromEUI64(iid)
		if err != nil || got != m {
			b.Fatal("round trip failed")
		}
	}
}

func BenchmarkStructuralCategory(b *testing.B) {
	addrs := benchAddrs(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = addrs[i%len(addrs)].IID().StructuralCategory()
	}
}

func BenchmarkP48(b *testing.B) {
	addrs := benchAddrs(1024)
	b.ResetTimer()
	var acc Prefix48
	for i := 0; i < b.N; i++ {
		acc ^= addrs[i%len(addrs)].P48()
	}
	_ = acc
}
