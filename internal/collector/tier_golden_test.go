package collector_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hitlist6/internal/collector"
	"hitlist6/internal/pager"
)

// goldenTierSum is the SHA-256 of pager.WriteTier over goldenStream()'s
// corpus (4,997 addresses: two chunks, a 210,312-byte version-2 file).
// It makes "byte-identical tier file" a test: the order, the directory
// and the chunk payloads all feed it. Pinned at the change to version 2
// on this evidence: the version-1 file at the parent commit hashed to
// the previous pin (c67efc6b…), and its directory section and both
// chunk sections — header, payload and CRC, extracted by offset — are
// byte-identical to this file's; the two differ by the version word,
// the meta's dropped length field and the dropped IID section.
const goldenTierSum = "24f5ed2a729cf453b55fde75e99d2f7c6ebdacb3f18d55a8e26e06d9fb18f375"

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
