package asdb_test

import (
	"testing"

	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
	"hitlist6/internal/simnet"
)

var rosterSink asdb.ASN

// BenchmarkTrieLookupRoster measures longest-prefix matching on the
// study's own shape: the routes are simnet's AS roster (BuildASDB) and
// the probes a small world's query addresses in generation order, so
// every probe falls inside the routed space as the study's sightings do.
func BenchmarkTrieLookupRoster(b *testing.B) {
	cfg := simnet.DefaultConfig(3, 0.02)
	cfg.Days = 14
	db, err := simnet.BuildASDB(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr := asdb.NewTrie[asdb.ASN]()
	for _, rp := range db.RoutedPrefixes() {
		tr.Insert(rp.Prefix, rp.Origin)
	}
	w, err := simnet.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var probes []addr.Addr
	w.GenerateQueries(func(q simnet.Query) {
		if len(probes) < 1<<16 {
			probes = append(probes, q.Addr)
		}
	})
	if len(probes) == 0 {
		b.Fatal("world generated no queries")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rosterSink, _ = tr.Lookup(probes[i%len(probes)])
	}
	b.ReportMetric(float64(tr.Len()), "routes")
}
