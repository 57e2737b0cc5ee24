package matrix

import (
	"testing"

	"hitlist6/internal/workload"
)

// BenchmarkScenario runs each profile's designated cell (seed 1)
// through the real pipeline and reports the per-scenario
// headline numbers: events/sec through the cell, live bytes per
// address, the probe-run p99/max of the final index layout, and (for
// drop-hinted profiles) the events shed by the load-shedding cell. One
// row per profile keeps the trajectory readable per scenario instead of
// only in aggregate.
func BenchmarkScenario(b *testing.B) {
	for _, p := range workload.Profiles() {
		p := p
		b.Run("profile="+p.Name, func(b *testing.B) {
			st, err := p.Stream(1, workload.SizeSmall)
			if err != nil {
				b.Fatal(err)
			}
			lg := legTable[0] // stream
			for _, l := range legsOf(p) {
				if !l.deterministic {
					lg = l // the load-shedding leg, where the profile has one
				}
			}
			b.ResetTimer()
			var out *cellOutcome
			for i := 0; i < b.N; i++ {
				out, err = runLeg(p, st, lg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(out.cell.EventsPerSec, "events/sec")
			b.ReportMetric(out.cell.BytesPerAddr, "B/addr")
			b.ReportMetric(float64(out.cell.ProbeP99), "probe_p99")
			b.ReportMetric(float64(out.cell.ProbeMax), "probe_max")
			if p.Hints.DropRun {
				b.ReportMetric(float64(out.cell.Dropped), "drops")
			}
		})
	}
}
