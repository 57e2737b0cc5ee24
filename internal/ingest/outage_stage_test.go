package ingest

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
)

// stageRoutes builds a two-AS routing table for stage unit tests.
func stageRoutes(t *testing.T) *asdb.DB {
	t.Helper()
	db := asdb.NewDB()
	for _, as := range []struct {
		asn    asdb.ASN
		prefix string
	}{
		{asn: 100, prefix: "2001:db8::"},
		{asn: 200, prefix: "2001:db9::"},
	} {
		p, err := addr.NewPrefix(addr.MustParse(as.prefix), 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddAS(asdb.AS{ASN: as.asn, Prefixes: []addr.Prefix{p}}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestOutageSeriesStageWindow(t *testing.T) {
	db := stageRoutes(t)
	origin := time.Date(2022, 1, 25, 0, 0, 0, 0, time.UTC)
	end := origin.Add(10 * time.Hour)
	st := OutageSeries(db, origin, end, time.Hour)().(*OutageSeriesStage)

	a100 := addr.MustParse("2001:db8::1")
	a200 := addr.MustParse("2001:db9::1")
	unrouted := addr.MustParse("2a00::1")

	o := origin.Unix()
	st.Process(Event{Addr: a100, Time: o})                     // bin 0
	st.Process(Event{Addr: a100, Time: o + 3599})              // bin 0
	st.Process(Event{Addr: a100, Time: o + 3600})              // bin 1
	st.Process(Event{Addr: a200, Time: o + 9*3600})            // bin 9
	st.Process(Event{Addr: a200, Time: o + 10*3600})           // bin 10 (the incomplete trailing bin)
	st.Process(Event{Addr: a200, Time: o + 11*3600})           // past the window: dropped
	st.Process(Event{Addr: a100, Time: o - 2*3600})            // before the window: dropped
	st.Process(Event{Addr: unrouted, Time: o})                 // unrouted: dropped
	st.Process(Event{Addr: a100, Time: o + 5*3600, Server: 3}) // vantage is irrelevant

	s := st.Series()
	if s.Bins != 11 || s.Complete != 10 {
		t.Fatalf("series shape: bins %d complete %d", s.Bins, s.Complete)
	}
	if !s.Origin.Equal(origin) || s.Bin != time.Hour {
		t.Fatalf("series origin/bin: %v %v", s.Origin, s.Bin)
	}
	want100 := []int{2, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0}
	want200 := []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1}
	if !reflect.DeepEqual(s.ByAS[100], want100) {
		t.Errorf("AS100 bins %v, want %v", s.ByAS[100], want100)
	}
	if !reflect.DeepEqual(s.ByAS[200], want200) {
		t.Errorf("AS200 bins %v, want %v", s.ByAS[200], want200)
	}
	if len(s.ByAS) != 2 {
		t.Errorf("unexpected ASes: %v", s.ByAS)
	}

	// Series() deep-copies: mutating the snapshot must not touch the stage.
	s.ByAS[100][0] = 999
	if got := st.Series().ByAS[100][0]; got != 2 {
		t.Errorf("snapshot aliases stage state: %d", got)
	}
}

func TestOutageSeriesStageLive(t *testing.T) {
	db := stageRoutes(t)
	factory := OutageSeriesLive(db, time.Hour)
	a := addr.MustParse("2001:db8::1")

	st := factory().(*OutageSeriesStage)
	base := int64(1_000_000 * 3600)               // an exact bin boundary, for readability
	st.Process(Event{Addr: a, Time: base + 1800}) // anchors origin to base
	st.Process(Event{Addr: a, Time: base + 2*3600})
	s := st.Series()
	if got := s.Origin.Unix(); got != base {
		t.Fatalf("anchored origin %d, want %d", got, base)
	}
	if s.Bins != 3 || s.Complete != 2 {
		t.Fatalf("live shape: bins %d complete %d (newest bin must be incomplete)", s.Bins, s.Complete)
	}

	// An earlier event rewinds bin 0 without losing recorded counts.
	st.Process(Event{Addr: a, Time: base - 3*3600})
	s = st.Series()
	if got := s.Origin.Unix(); got != base-3*3600 {
		t.Fatalf("rewound origin %d, want %d", got, base-3*3600)
	}
	want := []int{1, 0, 0, 1, 0, 1}
	if !reflect.DeepEqual(s.ByAS[100], want) {
		t.Errorf("live bins %v, want %v", s.ByAS[100], want)
	}
}

// TestOutageSeriesStageCachesMatchReference feeds stages events that
// alternate between ASes in runs, with unrouted addresses between them,
// in live mode with rewinds, and a later stretch in mid-stream that
// lengthens buckets, after which earlier events follow. Every Series
// must equal a count made with the database's own Lookup, so a lookup
// memo or bucket cache read across a reallocated bucket fails here.
func TestOutageSeriesStageCachesMatchReference(t *testing.T) {
	db := stageRoutes(t)
	addrs := []addr.Addr{
		addr.MustParse("2001:db8::1"), addr.MustParse("2001:db8:ffff::2"),
		addr.MustParse("2001:db9::3"), addr.MustParse("2a00::4"),
	}
	base := time.Date(2022, 1, 25, 0, 0, 0, 0, time.UTC).Unix()
	events := func(seed, shift int64) []Event {
		rng := rand.New(rand.NewSource(seed))
		var evs []Event
		for len(evs) < 400 {
			a := addrs[rng.Intn(len(addrs))]
			at := base + shift + rng.Int63n(48*3600)
			if rng.Intn(20) == 0 {
				at -= 30 * 3600 // before the live origin: a rewind
			}
			for n := rng.Intn(6); n >= 0; n-- {
				evs = append(evs, Event{Addr: a, Time: at + int64(n)*600})
			}
		}
		return evs
	}
	for _, mode := range []string{"window", "live"} {
		factory := OutageSeriesLive(db, time.Hour)
		if mode == "window" {
			origin := time.Unix(base, 0).UTC()
			factory = OutageSeries(db, origin, origin.Add(48*time.Hour), time.Hour)
		}
		st := factory().(*OutageSeriesStage)
		want := map[asdb.ASN]map[int64]int{} // AS -> bin start -> count
		feed := func(s *OutageSeriesStage, evs []Event) {
			for _, ev := range evs {
				s.Process(ev)
				as := db.Lookup(ev.Addr)
				bin := ev.Time / 3600 * 3600
				if mode == "window" {
					// Truncated toward zero, as BuildSeries bins.
					idx := (ev.Time - base) / 3600
					if idx < 0 || idx > 48 {
						continue
					}
					bin = base + idx*3600
				}
				if as == nil {
					continue
				}
				if want[as.ASN] == nil {
					want[as.ASN] = map[int64]int{}
				}
				want[as.ASN][bin]++
			}
		}
		feed(st, events(1, 0))
		feed(st, events(2, 24*3600)) // later events lengthen the buckets
		feed(st, events(3, 0))

		s := st.Series()
		got := map[asdb.ASN]map[int64]int{}
		for asn, bins := range s.ByAS {
			for i, n := range bins {
				if n > 0 {
					if got[asn] == nil {
						got[asn] = map[int64]int{}
					}
					got[asn][s.Origin.Unix()+int64(i)*3600] = n
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s mode: series %v, want %v", mode, got, want)
		}
	}
}

func TestOutageSeriesBinValidation(t *testing.T) {
	db := stageRoutes(t)
	for _, bin := range []time.Duration{0, -time.Hour, 1500 * time.Millisecond} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bin %v should panic at construction", bin)
				}
			}()
			OutageSeriesLive(db, bin)
		}()
	}
}
