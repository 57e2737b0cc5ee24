package collector

import "hitlist6/internal/addr"

// GoldenStream hands goldenStream to the external test package, which
// (unlike this one) may import internal/pager.
var GoldenStream = goldenStream

// SameIIDTables hands sameIIDTables to the external test package.
var SameIIDTables = sameIIDTables

// BenchStreamHead returns the first n events of collectorBenchStream as
// parallel slices, for the external test package.
func BenchStreamHead(n int) (addrs []addr.Addr, times []int64, servers []int) {
	events, _ := collectorBenchStream()
	for _, ev := range events[:n] {
		addrs, times, servers = append(addrs, ev.a), append(times, ev.ts), append(servers, ev.server)
	}
	return addrs, times, servers
}
