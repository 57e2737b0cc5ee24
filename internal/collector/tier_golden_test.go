package collector_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hitlist6/internal/collector"
	"hitlist6/internal/pager"
)

// goldenTierSum is the SHA-256 of pager.WriteTier over goldenStream()'s
// corpus (4,997 addresses: two chunks), computed at the commit before
// the canonical-order kernel replaced the reflection sorts. It makes
// "byte-identical tier file" a test: the order, the directory, the IID
// bytes and the chunk payloads all feed it.
const goldenTierSum = "c67efc6beb5e4c75a5dd70b93036e4a968f77d18fc5950365cc2793f8f0e9ab5"

func TestTierFileGolden(t *testing.T) {
	addrs, times, servers := collector.GoldenStream()
	c := collector.New()
	for i := range addrs {
		c.ObserveUnix(addrs[i], times[i], servers[i])
	}
	h := sha256.New()
	if err := pager.WriteTier(c, h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTierSum {
		t.Fatalf("tier file bytes drifted:\n got  %s\n want %s", got, goldenTierSum)
	}
}
