package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/pager"
)

// TestStatsIsOneView hammers the /stats builder while the ingest worker
// writes the store. Every address is distinct, seen once and has its own
// IID, so any corpus that ever existed has observations == unique_addrs
// == unique_iids; a reply assembled from separately locked reads breaks
// the equality whenever a batch lands between them, and so does a category
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
				d.pipe.Quiesce()
			}
		}
		b.Flush()
		d.pipe.Quiesce()
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

	<-done // the feeder's last Quiesce has returned
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

	// Without -snapshot.delta every checkpoint rewrites the base.
	_, _, metrics := get(t, srv.URL, "/metrics")
	for _, phase := range tierPhases {
		for kind, n := range map[string]int{tierBase: 11, tierRun: 0} {
			if want := fmt.Sprintf(`ingestd_tier_refresh_seconds_count{kind="%s",phase="%s"} %d`, kind, phase, n); !strings.Contains(metrics, want) {
				t.Errorf("/metrics missing %q", want)
			}
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
// Runs are never trusted blindly: the cases after those cover runs a
// stop left, a superseded run put back, a run that never got written
// and a run write that failed.
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
			d, srv := restartTier(t, dir)
			defer d.pipe.Close()
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

	// A delta-mode daemon stops after two delta checkpoints, leaving the
	// base and two runs; an address only the last run held is answered,
	// field by field, as the restored corpus holds it.
	t.Run("runs-left", func(t *testing.T) {
		dir := t.TempDir()
		first := newChainDaemon(t, dir, 0)
		first.enableTier(dir, 1<<20)
		feed(t, first)
		checkpoint(t, first) // the base
		sight(t, first, "1643673700 2001:db8::10 5")
		checkpoint(t, first) // run 1
		sight(t, first, "1643673800 2001:db8::20 6", "1643673801 2001:db8::1 7")
		checkpoint(t, first) // run 2: the only file holding ::20
		first.pipe.Close()
		if runs := tierRunFiles(tierPath(dir)); len(runs) != 2 {
			t.Fatalf("setup: runs %v, want two", runs)
		}

		d, srv := restartTier(t, dir)
		defer d.pipe.Close()
		defer srv.Close()
		for _, a := range []string{"2001:db8::20", "2001:db8::1"} {
			wantRecord(t, d, srv.URL, a)
		}
		if runs := tierRunFiles(tierPath(dir)); len(runs) != 0 {
			t.Fatalf("runs %v survived the rebuild", runs)
		}
	})

	// A run copied aside, a full checkpoint over it, the run put back: it
	// holds an older record of ::1 than the base, and neither the running
	// daemon nor a restarted one serves it.
	t.Run("superseded-run", func(t *testing.T) {
		dir := t.TempDir()
		d := newChainDaemon(t, dir, 0)
		d.enableTier(dir, 1<<20)
		feed(t, d)
		checkpoint(t, d)
		sight(t, d, "1643673700 2001:db8::1 5")
		checkpoint(t, d) // run 1: ::1 seen twice
		run := tierRunPath(tierPath(dir), 1)
		aside, err := os.ReadFile(run)
		if err != nil {
			t.Fatal(err)
		}
		sight(t, d, "1643673800 2001:db8::1 6")
		d.deltaMode = false
		checkpoint(t, d) // a full checkpoint: a new base, no runs
		if _, err := os.Stat(run); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("a full checkpoint left run 1 (stat: %v)", err)
		}
		if err := os.WriteFile(run, aside, 0o644); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(d.newMux())
		if r := wantRecord(t, d, srv.URL, "2001:db8::1"); r.Count != 3 {
			t.Fatalf("running daemon: ::1 seen %d times, want 3", r.Count)
		}
		srv.Close()
		d.pipe.Close()

		d, srv = restartTier(t, dir)
		defer d.pipe.Close()
		defer srv.Close()
		if r := wantRecord(t, d, srv.URL, "2001:db8::1"); r.Count != 3 {
			t.Fatalf("after the restart: ::1 seen %d times, want 3", r.Count)
		}
	})

	// A crash after a delta's rename and before its run's leaves a base
	// older than the restored chain and no run to say so: the observation
	// totals disagree, and the tier is rebuilt.
	t.Run("run-missing", func(t *testing.T) {
		dir := t.TempDir()
		first := newChainDaemon(t, dir, 0)
		first.enableTier(dir, 1<<20)
		feed(t, first)
		checkpoint(t, first)
		sight(t, first, "1643673700 2001:db8::1 5", "1643673701 2001:db8::30 5")
		checkpoint(t, first)
		first.pipe.Close()
		if err := os.Remove(tierRunPath(tierPath(dir), 1)); err != nil {
			t.Fatal(err)
		}
		d, srv := restartTier(t, dir)
		defer d.pipe.Close()
		defer srv.Close()
		for _, a := range []string{"2001:db8::30", "2001:db8::1"} {
			wantRecord(t, d, srv.URL, a)
		}
	})

	// A directory squatting on the next run's name fails its rename. The
	// checkpoint still succeeds and logs the tier error; the next one
	// rewrites the base, which holds what the run would have.
	t.Run("run-write-fails", func(t *testing.T) {
		dir := t.TempDir()
		d := newChainDaemon(t, dir, 0)
		defer d.pipe.Close()
		d.enableTier(dir, 1<<20)
		srv := httptest.NewServer(d.newMux())
		defer srv.Close()
		feed(t, d)
		checkpoint(t, d)
		if err := os.Mkdir(tierRunPath(tierPath(dir), 1), 0o755); err != nil {
			t.Fatal(err)
		}
		sight(t, d, "1643673700 2001:db8::40 5", "1643673701 2001:db8::1 5")
		before := statFile(t, tierPath(dir))
		checkpoint(t, d)
		if _, _, events := get(t, srv.URL, "/debug/events"); !strings.Contains(events, "tier refresh failed") {
			t.Fatalf("no tier error logged:\n%s", events)
		}
		if !os.SameFile(before, statFile(t, tierPath(dir))) {
			t.Fatal("the failed run rewrote the base")
		}
		checkpoint(t, d)
		if os.SameFile(before, statFile(t, tierPath(dir))) {
			t.Fatal("the checkpoint after a failed run did not rewrite the base")
		}
		for _, a := range []string{"2001:db8::40", "2001:db8::1"} {
			wantRecord(t, d, srv.URL, a)
		}
	})
}

// TestTierRunPerDelta pins what each checkpoint writes in delta mode: a
// delta checkpoint leaves corpus.tier as it was — same file, same mtime
// — and adds exactly one run, named by its sequence number; a full
// checkpoint (the first, and every compaction) rewrites corpus.tier and
// leaves no run; the run count never exceeds CompactEvery. After every
// checkpoint each address fed so far answers its live record.
func TestTierRunPerDelta(t *testing.T) {
	const compact = 3
	dir := t.TempDir()
	d := newChainDaemon(t, dir, compact)
	defer d.pipe.Close()
	d.enableTier(dir, 1<<20)
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()

	var fed []string
	var base os.FileInfo
	for i := 1; i <= 3*(compact+1)+1; i++ {
		a := fmt.Sprintf("2001:db8:5::%x", i)
		fed = append(fed, a)
		sight(t, d, fmt.Sprintf("%d %s 1", 1643673600+i, a), fmt.Sprintf("%d %s 2", 1643673600+i, fed[i/2]))
		checkpoint(t, d)
		seq, _ := d.pipe.Store().CheckpointSeq()
		now := statFile(t, tierPath(dir))
		runs := tierRunFiles(tierPath(dir))
		if seq == 0 {
			if base != nil && os.SameFile(base, now) {
				t.Fatalf("checkpoint %d was full and left corpus.tier as it was", i)
			}
			if len(runs) != 0 {
				t.Fatalf("checkpoint %d was full and left runs %v", i, runs)
			}
		} else {
			if !os.SameFile(base, now) || !base.ModTime().Equal(now.ModTime()) {
				t.Fatalf("delta checkpoint %d rewrote corpus.tier", i)
			}
			if len(runs) != int(seq) || !slices.Contains(runs, tierRunPath(tierPath(dir), seq)) {
				t.Fatalf("delta checkpoint %d (seq %d) left runs %v", i, seq, runs)
			}
		}
		if len(runs) > compact {
			t.Fatalf("%d runs, over CompactEvery %d", len(runs), compact)
		}
		if st := d.tierStats(); st.Runs != len(runs) || st.Addrs != d.pipe.Store().NumAddrs() {
			t.Fatalf("checkpoint %d: /stats tier block says %d runs, %d addrs", i, st.Runs, st.Addrs)
		}
		base = now
		for _, a := range fed {
			wantRecord(t, d, srv.URL, a)
		}
	}
}

// restartTier restarts a daemon on dir as main does: restore the
// checkpoint, seed the store, then enable the tier.
func restartTier(t *testing.T, dir string) (*daemon, *httptest.Server) {
	t.Helper()
	restored := restoreOrEmpty(snapshotPath(dir), testLogger(t))
	if restored == nil {
		t.Fatal("checkpoint did not restore")
	}
	d := newSeededDaemon(t, dir, restored)
	d.enableTier(dir, 1<<20)
	return d, httptest.NewServer(d.newMux())
}

// sight feeds event lines and waits until the store holds them.
func sight(t *testing.T, d *daemon, lines ...string) {
	t.Helper()
	want := d.pipe.Metrics().Processed + uint64(len(lines))
	b := d.pipe.NewBatcher()
	for _, l := range lines {
		ingestDatagram(b, []byte(l+"\n"), &d.badLines)
	}
	b.Flush()
	d.pipe.Quiesce()
	if got := d.pipe.Metrics().Processed; got != want {
		t.Fatalf("processed %d events, want %d", got, want)
	}
}

func checkpoint(t *testing.T, d *daemon) {
	t.Helper()
	if _, err := d.checkpointNow(); err != nil {
		t.Fatal(err)
	}
}

func statFile(t *testing.T, path string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// wantRecord probes a and requires the reply to carry, field by field,
// the record the daemon's live corpus holds for it.
func wantRecord(t *testing.T, d *daemon, url, a string) probeReply {
	t.Helper()
	key, err := addr.Parse(a)
	if err != nil {
		t.Fatal(err)
	}
	var want collector.AddrRecord
	var held bool
	d.pipe.Store().View(func(c *collector.Collector) { want, held = c.Get(key) })
	if !held {
		t.Fatalf("the corpus does not hold %s", a)
	}
	status, _, body := get(t, url, "/probe?addr="+a)
	var r probeReply
	if err := json.Unmarshal([]byte(body), &r); status != http.StatusOK || err != nil {
		t.Fatalf("/probe %s: status %d, %s", a, status, body)
	}
	if got := (collector.AddrRecord{First: r.First, Last: r.Last, Count: r.Count, Servers: r.Servers}); !r.Found || got != want {
		t.Fatalf("/probe %s = %+v (found %v), the corpus holds %+v", a, got, r.Found, want)
	}
	return r
}

// blockedWriter blocks its first Write until release closes, after
// closing started, and keeps every byte.
type blockedWriter struct {
	started, release chan struct{}
	once             sync.Once
	buf              bytes.Buffer
}

func (w *blockedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.started)
		<-w.release
	})
	return w.buf.Write(p)
}

// TestStoreWritableDuringBaseRewrite: a tier base rewrite holds the
// store's lock only while it copies the records, so a store write —
// the ingest worker's next batch — completes while the rewrite is blocked
// on its first output byte, and the base still holds the corpus as it
// was copied.
func TestStoreWritableDuringBaseRewrite(t *testing.T) {
	store := collector.NewStore()
	want := collector.New()
	store.Update(func(c *collector.Collector) {
		for i := range 10_000 {
			a := addr.FromParts(0x20010db8_00000000|uint64(i>>8), uint64(i)+1)
			c.ObserveUnix(a, 1643673600+int64(i), i%27)
			want.ObserveUnix(a, 1643673600+int64(i), i%27)
		}
	})
	w := &blockedWriter{started: make(chan struct{}), release: make(chan struct{})}
	type result struct {
		addrs int
		err   error
	}
	done := make(chan result, 1)
	go func() {
		n, err := encodeTier(store, (*collector.Collector).CopyRecords, w)
		done <- result{n, err}
	}()
	<-w.started

	wrote := make(chan struct{})
	go func() {
		store.Update(func(c *collector.Collector) { c.ObserveUnix(addr.MustParse("2001:db8:ffff::1"), 1643673600, 0) })
		close(wrote)
	}()
	select {
	case <-wrote:
	case <-time.After(10 * time.Second):
		close(w.release)
		t.Fatal("a store write waited on a tier base rewrite blocked in its first Write")
	}
	close(w.release)
	res := <-done
	if res.err != nil || res.addrs != want.NumAddrs() {
		t.Fatalf("encodeTier = %d addresses, %v; want %d, nil", res.addrs, res.err, want.NumAddrs())
	}
	var direct bytes.Buffer
	if err := pager.WriteTier(want, &direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.buf.Bytes(), direct.Bytes()) {
		t.Error("the base written from the copy differs from WriteTier over the corpus it copied")
	}
}
