package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
)

// TestStatsIsOneView hammers the /stats builder while shard snapshots
// merge. Every address is distinct, seen once and has its own IID, so
// any corpus that ever existed has observations == unique_addrs ==
// unique_iids; a reply assembled from separately locked reads breaks the
// equality whenever a merge lands between them, and so does a category
// tally folded from another view than the counters: the categories of
// every reply sum to its unique_addrs. The issue's form of the
// assertion — observations == fed implies unique_addrs == want — is the
// last iteration. Then the store shrinks (Detach) and takes a smaller
// corpus over the same IIDs: the tally must start over, or unique_iids
// still counts the old corpus's.
func TestStatsIsOneView(t *testing.T) {
	d := newTestDaemon(t, "")
	defer d.pipe.Close()
	const n = 60_000
	stop, done := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-done }() // before the deferred Close: no feeding a closed pipeline
	go func() {
		defer close(done)
		b := d.pipe.NewBatcher()
		for i := 0; i < n; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b.Add(ingest.Event{Addr: addr.FromParts(0x20010db8_00000000|uint64(i>>6), uint64(i)+1), Time: 1643673600})
			if i%256 == 255 {
				b.Flush()
				d.pipe.SnapshotNow()
			}
		}
		b.Flush()
		d.pipe.SnapshotNow()
	}()
	singleView := func(replies int) statsReply {
		t.Helper()
		r := d.buildStats()
		if r.Observations != uint64(r.UniqueAddrs) || r.UniqueIIDs != r.UniqueAddrs || sumCategories(r) != uint64(r.UniqueAddrs) {
			t.Fatalf("reply %d is no single view of the corpus: observations %d, unique_addrs %d, unique_iids %d, categories sum to %d",
				replies, r.Observations, r.UniqueAddrs, r.UniqueIIDs, sumCategories(r))
		}
		return r
	}
	deadline := time.Now().Add(60 * time.Second)
	for replies := 1; singleView(replies).Observations != n; replies++ {
		if time.Now().After(deadline) {
			t.Fatalf("store stuck short of %d observations", n)
		}
	}

	<-done // the feeder's last SnapshotNow has returned
	d.pipe.Store().Detach()
	small := make([]ingest.Event, 100)
	for i := range small {
		small[i] = ingest.Event{Addr: addr.FromParts(0x20010db9_00000000, uint64(i)+1), Time: 1643673600}
	}
	d.pipe.Ingest(small)
	d.pipe.Quiesce()
	if r := singleView(0); r.UniqueAddrs != len(small) {
		t.Fatalf("after the store shrank: unique_addrs %d, want %d", r.UniqueAddrs, len(small))
	}
}

// TestProbeDuringTierRefresh runs 4 continuous probers against 10 POST
// /snapshot refreshes of a corpus big enough that a rewrite takes tens
// of milliseconds. Every probe must answer 200 with the right found —
// a reader closed under a probe, or a probe against a half-swapped
// pointer, shows up as a 500 or a wrong answer — each refresh must be
// visible to the probe that follows it, and some probe must both start
// and finish while one refresh's temp file exists: that is a probe
// answered during the rewrite, judged by order of events, not by a
// clock. With the rewrite under the probe lock that count is zero.
func TestProbeDuringTierRefresh(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, dir)
	defer d.pipe.Close()
	d.enableTier(dir, 1<<20)

	const corpus = 150_000
	key := func(i int) addr.Addr {
		return addr.FromParts(0x20010db8_00000000|uint64(i%4099), uint64(i)*2654435761+1)
	}
	seed := collector.New()
	for i := 0; i < corpus; i++ {
		seed.ObserveUnix(key(i), int64(1643673600+i), i%27)
	}
	d.pipe.Store().ApplyShard(seed)

	srv := httptest.NewServer(d.newMux())
	defer srv.Close()
	probe := func(a addr.Addr) (probeReply, int) {
		resp, err := http.Get(srv.URL + "/probe?addr=" + a.String())
		if err != nil {
			t.Errorf("GET /probe: %v", err)
			return probeReply{}, 0
		}
		defer resp.Body.Close()
		var reply probeReply
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
				t.Errorf("/probe reply: %v", err)
			}
		}
		return reply, resp.StatusCode
	}
	snapshot := func() {
		resp, err := http.Post(srv.URL+"/snapshot", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /snapshot: status %d", resp.StatusCode)
		}
	}
	snapshot() // the first tier file: probes answer 503 before it exists

	tmpFile := func() string {
		m, _ := filepath.Glob(d.tierPath + ".tmp*")
		if len(m) != 1 {
			return ""
		}
		return m[0]
	}
	var during atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopProbers := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopProbers() // also on t.Fatal, before the server goes away
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += 4 {
				select {
				case <-stop:
					return
				default:
				}
				a, want := key(i%corpus), true
				if i%2 == 1 {
					a, want = key(corpus+i), false // never ingested
				}
				before := tmpFile()
				reply, status := probe(a)
				if status != http.StatusOK || reply.Found != want {
					t.Errorf("probe %s: status %d found %v, want 200 found %v", a, status, reply.Found, want)
					return
				}
				if before != "" && before == tmpFile() {
					during.Add(1)
				}
			}
		}(g)
	}

	b := d.pipe.NewBatcher()
	for round := 0; round < 10; round++ {
		fresh := addr.FromParts(0x20010db8_ffff0000, uint64(round)+1)
		b.Add(ingest.Event{Addr: fresh, Time: 1643673600})
		b.Flush()
		snapshot()
		if reply, status := probe(fresh); status != http.StatusOK || !reply.Found {
			t.Fatalf("round %d: address checkpointed before the refresh not served after it (status %d)", round, status)
		}
	}
	stopProbers()
	if during.Load() == 0 {
		t.Error("no probe was answered while a refresh was writing: the rewrite still excludes readers")
	}

	_, _, metrics := get(t, srv.URL, "/metrics")
	for _, phase := range tierPhases {
		if want := `ingestd_tier_refresh_seconds_count{phase="` + phase + `"} 11`; !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	_, _, events := get(t, srv.URL, "/debug/events")
	for _, phase := range tierPhases {
		if want := `"tier_` + phase + `_s"`; !strings.Contains(events, want) {
			t.Errorf("/debug/events: snapshot lines lack %s", want)
		}
	}
}

// TestTierRebuiltOnRestart: a daemon that restores a corpus and finds
// no tier file it can open — none at all, one stamped format version 1
// (what every upgrade across the version bump finds), plain garbage —
// rebuilds the tier from the restored corpus inside enableTier, so the
// first /probe answers 200 instead of 503 until somebody checkpoints. A
// daemon with nothing restored writes no tier and answers 503 as before.
func TestTierRebuiltOnRestart(t *testing.T) {
	for name, stale := range map[string][]byte{
		"missing":   nil,
		"version-1": []byte("h6tier01\x00\x00\x00\x01left by an older build"),
		"garbage":   []byte("not a tier file"),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			first := newTestDaemon(t, dir)
			feed(t, first)
			if _, err := first.checkpointNow(); err != nil {
				t.Fatal(err)
			}
			first.pipe.Close()
			if stale != nil {
				if err := os.WriteFile(tierPath(dir), stale, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			// The restart, as main runs it: restore the checkpoint, seed
			// the store, then enable the tier.
			d := newTestDaemon(t, dir)
			defer d.pipe.Close()
			restored := restoreOrEmpty(d.snapPath, t.Logf)
			if restored == nil {
				t.Fatal("checkpoint did not restore")
			}
			d.pipe.Store().ApplyShard(restored)
			d.enableTier(dir, 1<<20)
			srv := httptest.NewServer(d.newMux())
			defer srv.Close()
			if status, _, body := get(t, srv.URL, "/probe?addr=2001:db8::1"); status != http.StatusOK || !strings.Contains(body, `"found":true`) {
				t.Fatalf("first /probe after the restart: status %d, %s", status, body)
			}
		})
	}

	t.Run("nothing-restored", func(t *testing.T) {
		dir := t.TempDir()
		d := newTestDaemon(t, dir)
		defer d.pipe.Close()
		d.enableTier(dir, 1<<20)
		if _, err := os.Stat(tierPath(dir)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("an empty store wrote a tier file (stat: %v)", err)
		}
		srv := httptest.NewServer(d.newMux())
		defer srv.Close()
		if status, _, body := get(t, srv.URL, "/probe?addr=2001:db8::1"); status != http.StatusServiceUnavailable {
			t.Fatalf("/probe with no tier: status %d, %s", status, body)
		}
	})
}
