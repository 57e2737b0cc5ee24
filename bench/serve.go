package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"hitlist6/internal/addr"
)

const (
	// ramBudget is the daemon's -corpus.rambudget. The tier file of the
	// default stream is about 8x this, so uniform probes cannot all be
	// served from resident chunks while a hot range can.
	ramBudget = 2 << 20
	// preloadShare of the stream is in the corpus before the steady
	// phase starts; each cycle then adds cycleShare of it. A cycle lasts
	// cycleLen whatever -seconds says, so that the daemon's CPU per event
	// over a cycle, which includes serving cycleLen of probes, does not
	// depend on the run length; -seconds sets how many cycles run, up to
	// the maxCycles the stream has slices for. Cycles are short so that a
	// run has many: one tier rewrite sets a cycle's figures and varies by
	// 15 % from cycle to cycle, and over ten seeds the median of sixteen
	// cycles spread 6 % where that of eight (of 2.5 s) spread 14 %.
	preloadShare = 0.80
	cycleShare   = 0.0125
	cycleLen     = 1250 * time.Millisecond
	minCycles    = 3
	maxCycles    = 16
	// probeInterval fixes the open-loop probe rate at 500/s.
	probeInterval = 2 * time.Millisecond
	// endStateSample is how many addresses the end-of-run /probe check
	// compares field by field with the reference.
	endStateSample = 200
)

// probe classes of the key mix.
const (
	classHot     = iota // present, from a key range that fits the RAM budget
	classUniform        // present, anywhere in the corpus
	classAbsent         // never sent
	numClasses
)

// keyMix is the prober's seeded key schedule: 45 % hot-range present
// keys, 45 % uniform present keys, 10 % absent keys.
type keyMix struct {
	rng     *rand.Rand
	hot     []addr.Addr
	uniform []addr.Addr
	absent  []addr.Addr
}

// newKeyMix draws the keys from the preloaded part of the stream, so
// every present key is in the tier from the first probe on. The tier is
// in canonical (address) order, so a prefix of the sorted addresses is a
// run of adjacent chunks; hotAddrs of them are the hot range.
func newKeyMix(seed int64, preloaded, whole *reference, hotAddrs int) *keyMix {
	sorted := make([]addr.Addr, 0, len(preloaded.addrs))
	for a := range preloaded.addrs {
		sorted = append(sorted, a)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	m := &keyMix{rng: rand.New(rand.NewSource(seed)), uniform: sorted}
	m.hot = sorted[:min(max(hotAddrs, 1), len(sorted))]
	for i := 0; i < 4096; i++ {
		m.absent = append(m.absent, whole.absentAddr(sorted[m.rng.Intn(len(sorted))], uint64(i)))
	}
	return m
}

func (m *keyMix) next() (a addr.Addr, class int) {
	switch p := m.rng.Intn(100); {
	case p < 45:
		return m.hot[m.rng.Intn(len(m.hot))], classHot
	case p < 90:
		return m.uniform[m.rng.Intn(len(m.uniform))], classUniform
	default:
		return m.absent[m.rng.Intn(len(m.absent))], classAbsent
	}
}

// dirState maps each regular file under a directory to its identity and
// size, so two states show which files a checkpoint created or rewrote.
type fileState struct {
	size    int64
	modTime time.Time
	inode   uint64
}

func scanDir(dir string) (map[string]fileState, error) {
	out := make(map[string]fileState)
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || !de.Type().IsRegular() {
			return err
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		out[path] = fileState{info.Size(), info.ModTime(), fileID(info)}
		return nil
	})
	return out, err
}

// writtenBytes is the size of every file in after that is new or
// changed since before.
func writtenBytes(before, after map[string]fileState) int64 {
	var n int64
	for path, a := range after {
		if b, ok := before[path]; !ok || b != a {
			n += a.size
		}
	}
	return n
}

func totalBytes(state map[string]fileState) int64 {
	var n int64
	for _, s := range state {
		n += s.size
	}
	return n
}

// runServeDurable keeps one daemon with delta checkpoints and a
// RAM-budgeted tier: preload, first (full) snapshot, then cycles in
// which the writer sends a slice of new events, POSTs /snapshot and
// checks the slice's last new address on /probe, while an open-loop
// prober reads throughout; then SIGTERM, restart and end-state checks.
func runServeDurable(ctx context.Context, b *bench, o *outcome) error {
	dir := filepath.Join(b.work, "durable")
	flags := []string{"-snapshot.dir", dir, "-snapshot.delta", "-corpus.rambudget", strconv.Itoa(ramBudget)}
	d, err := startDaemon(ctx, b.ingestd, flags...)
	if err != nil {
		return err
	}
	defer d.kill()
	b.daemonFlags = d.flags
	s, err := newSender(d.udpPort)
	if err != nil {
		return err
	}
	defer s.Close()

	w := b.grow
	sentRef := newReference(len(b.growRef.addrs))
	sentDatagrams := 0
	// noteTier keeps the highest pager residency any /stats reply of the
	// run showed: the replies the writer waits on anyway, one at every
	// cycle edge, and in a traced cycle a 10 Hz sample of the idle part.
	tierReplies := 0
	noteTier := func(st daemonStats) {
		if st.Tier != nil {
			tierReplies++
			o.layer["pager.resident_bytes_max"] = max(o.layer["pager.resident_bytes_max"], float64(st.Tier.ResidentBytes))
		}
	}
	// sendSlice sends the next n datagrams, waits until the daemon has
	// processed them, and folds them into the reference of what was sent.
	sendSlice := func(n int) (events int, err error) {
		from, to := sentDatagrams, min(sentDatagrams+n, len(w.datagrams))
		if err := s.send(w.datagrams[from:to]); err != nil {
			return 0, err
		}
		if s.drops != 0 {
			return 0, fmt.Errorf("the kernel dropped %d datagrams; the run cannot go on", s.drops)
		}
		sentDatagrams = to
		total := uint64(w.eventsIn(to))
		if _, _, err := d.waitStats(ctx, func(st daemonStats) bool {
			noteTier(st)
			return st.UDP.Events == total && st.Metrics.Processed == total
		}); err != nil {
			return 0, err
		}
		slice := w.events[w.eventsIn(from):w.eventsIn(to)]
		sentRef.observe(slice)
		return len(slice), nil
	}

	// Preload and the first snapshot, which is a full one and writes the
	// first tier file.
	root, endRoot := b.tr.begin(0, 0, "serve-durable")
	_, end := b.tr.begin(0, root, "preload")
	preloaded, err := sendSlice(int(preloadShare * float64(len(w.datagrams))))
	if err != nil {
		return err
	}
	end(int64(preloaded))
	o.attempted += int64(preloaded) + 1
	_, end = b.tr.begin(0, root, "snapshot.full")
	t := time.Now()
	if _, err := d.postSnapshot(); err != nil {
		o.fail(1, "first snapshot: %v", err)
		return nil
	}
	o.layer["daemon.preload_snapshot_s"] = time.Since(t).Seconds()
	end(1)
	state, err := scanDir(dir)
	if err != nil {
		return err
	}
	tier := state[filepath.Join(dir, "corpus.tier")].size
	if tier <= ramBudget {
		return fmt.Errorf("tier file is %d B, not larger than the %d B RAM budget: the stream is too small for this workload", tier, ramBudget)
	}
	o.layer["pager.tier_bytes"] = float64(tier)
	// The whole-life high-water mark starts with the preload's; the
	// cycles reset the kernel's and raise this one.
	if o.layer["daemon.peak_rss_mb"], err = procPeakRSSMB(d.pid()); err != nil {
		return err
	}

	// Half the budget's worth of adjacent records is the hot range.
	bytesPerAddr := float64(tier) / float64(len(sentRef.addrs))
	mix := newKeyMix(b.cfg.seed, sentRef, b.growRef, int(ramBudget/2/bytesPerAddr))

	// Steady phase: the prober on its own goroutine and connection, the
	// writer on this one.
	cycles := min(max(int(b.cfg.seconds/cycleLen.Seconds()), minCycles), maxCycles)
	steadyStart := time.Now()
	steadyEnd := steadyStart.Add(time.Duration(cycles) * cycleLen)
	type probed struct {
		class int
		ok    bool
	}
	var probes []probed
	var samples []openLoopSample
	proberDone := make(chan struct{})
	go func() {
		defer close(proberDone)
		client := keepAliveClient()
		defer client.CloseIdleConnections()
		samples = runOpenLoop(wallClock{}, steadyStart, probeInterval, steadyEnd, func(int) {
			a, class := mix.next()
			r, err := d.probe(client, a)
			probes = append(probes, probed{class, err == nil && r.Found == (class != classAbsent)})
		})
	}()
	// cycle is one cycle of the steady phase; its samples go to r.
	cycle := func(c, perCycle int, r *repeat) error {
		tr := b.tracerFor(c)
		traced := tr != nil
		cyc, endCyc := tr.begin(c+1, root, "cycle")
		// The cycle's own high-water mark: one growth step of the
		// corpus in one cycle of a run (99 MB one run, 116 MB the
		// next, none at all at a smaller seed) is all the whole-life
		// mark shows.
		if err := procResetPeakRSS(d.pid()); err != nil {
			return err
		}
		cpu0, err := procCPUSeconds(d.pid())
		if err != nil {
			return err
		}
		before, err := scanDir(dir)
		if err != nil {
			return err
		}
		var m0 map[string]float64
		if traced {
			if m0, err = d.scrape(); err != nil {
				return err
			}
		}
		// The slice's last address not sent before it.
		from := w.eventsIn(sentDatagrams)
		to := w.eventsIn(min(sentDatagrams+perCycle, len(w.datagrams)))
		lastNew := w.events[to-1].Addr
		for i := to - 1; i >= from; i-- {
			if _, seen := sentRef.addrs[w.events[i].Addr]; !seen {
				lastNew = w.events[i].Addr
				break
			}
		}

		b.dither()
		_, end := tr.begin(c+1, cyc, "udp.send+drain")
		t0 := time.Now()
		events, err := sendSlice(perCycle)
		if err != nil {
			return err
		}
		end(int64(events))
		o.attempted += int64(events) + 2

		_, end = tr.begin(c+1, cyc, "http.snapshot_post")
		tPost := time.Now()
		reply, err := d.postSnapshot()
		end(1)
		if err != nil {
			o.fail(1, "cycle %d snapshot: %v", c, err)
			return nil
		}
		_, end = tr.begin(c+1, cyc, "probe.visible")
		pr, err := d.probe(d.control, lastNew)
		tVisible := time.Now()
		end(1)
		if err != nil || !pr.Found {
			o.fail(1, "cycle %d: last new address %s not found after the snapshot (err %v)", c, lastNew, err)
			return nil
		}
		after, err := scanDir(dir)
		if err != nil {
			return err
		}

		// Idle to the cycle edge; a traced cycle samples /stats at
		// 10 Hz meanwhile for the pager's residency, an untraced one
		// once at the edge.
		edge := steadyStart.Add(time.Duration(c+1) * cycleLen)
		for time.Now().Before(edge) {
			if traced {
				st, err := d.stats()
				if err != nil {
					return err
				}
				noteTier(st)
			}
			time.Sleep(min(100*time.Millisecond, max(time.Until(edge), 0)))
		}
		st, err := d.stats()
		if err != nil {
			return err
		}
		noteTier(st)
		cpu1, err := procCPUSeconds(d.pid())
		if err != nil {
			return err
		}
		peak, err := procPeakRSSMB(d.pid())
		if err != nil {
			return err
		}
		r.add("peak_rss_mb", peak)
		o.layer["daemon.peak_rss_mb"] = max(o.layer["daemon.peak_rss_mb"], peak)
		if traced {
			m1, err := d.scrape()
			if err != nil {
				return err
			}
			r.add("ingest.merge.count", m1["ingest_merge_seconds_count"]-m0["ingest_merge_seconds_count"])
			r.add("ingest.merge.s_total", m1["ingest_merge_seconds_sum"]-m0["ingest_merge_seconds_sum"])
			r.add("traced.events_per_s", float64(events)/tVisible.Sub(t0).Seconds())
		} else if b.tr != nil {
			r.add("untraced.events_per_s", float64(events)/tVisible.Sub(t0).Seconds())
		}
		endCyc(int64(events))

		r.add("events_per_s", float64(events)/tVisible.Sub(t0).Seconds())
		r.add("cpu_us_per_event", (cpu1-cpu0)/float64(events)*1e6)
		r.add("snapshot_to_probe_s", tVisible.Sub(tPost).Seconds())
		// A byte count, not a timing, and one that grows with the corpus
		// from cycle to cycle: every cycle's counts, disturbed or not.
		o.add("checkpoint_bytes_per_event", float64(writtenBytes(before, after))/float64(events))
		r.add("http.snapshot_post_s", float64(reply.Millis)/1e3)
		return nil
	}
	var reps []*repeat
	cycleErr := func() error {
		perCycle := int(cycleShare * float64(len(w.datagrams)))
		for c := 0; c < cycles; c++ {
			r, err := measureRepeat(func(r *repeat) error { return cycle(c, perCycle, r) })
			if err != nil {
				return err
			}
			if len(r.samples) > 0 {
				reps = append(reps, r)
			}
		}
		return nil
	}()
	<-proberDone
	if cycleErr != nil {
		return cycleErr
	}
	o.keepUndisturbed(reps)
	// Probe latency over the whole steady phase, from due time.
	byClass := make([][]float64, numClasses)
	var all, late []float64
	for i, sm := range samples {
		us := float64(sm.latency) / float64(time.Microsecond)
		all = append(all, us)
		late = append(late, float64(sm.late)/float64(time.Microsecond))
		byClass[probes[i].class] = append(byClass[probes[i].class], us)
		o.attempted++
		if !probes[i].ok {
			o.fail(1, "probe %d (class %d): error or wrong found", i, probes[i].class)
		}
	}
	o.add("probe_p50_us", percentile(all, 50))
	o.add("probe_p99_us", percentile(all, 99))
	o.layer["probe.hot_p50_us"] = percentile(byClass[classHot], 50)
	o.layer["probe.uniform_p50_us"] = percentile(byClass[classUniform], 50)
	o.layer["probe.absent_p50_us"] = percentile(byClass[classAbsent], 50)
	o.layer["probe.late_p50_us"] = percentile(late, 50)
	o.layer["probe.late_p99_us"] = percentile(late, 99)

	st, err := d.stats()
	if err != nil {
		return err
	}
	if st.Tier != nil {
		o.layer["pager.filter_skip_share"] = ratio(float64(st.Tier.FilterSkips), float64(st.Tier.FilterProbes))
		o.layer["pager.chunk_loads_per_probe"] = ratio(float64(st.Tier.ChunkLoads), float64(len(samples)))
		// At least the cycle-edge replies carried a tier block, so the
		// maximum is one of real readings.
		check(o, "pager residency was sampled", tierReplies >= cycles, true)
		check(o, "pager resident bytes within budget", o.layer["pager.resident_bytes_max"] <= ramBudget, true)
	}
	o.layer["udp.sender_wait_share"] = s.waitShare()
	o.layer["udp.rxq_high_water_bytes"] = float64(s.rxqHigh)
	o.layer["udp.kernel_drops"] = float64(s.drops)

	// SIGTERM writes a final delta and tier; what is on disk afterwards
	// is what a restart finds.
	_, end = b.tr.begin(0, root, "daemon.stop")
	if err := d.stop(); err != nil {
		return err
	}
	end(1)
	o.layer["daemon.shutdown_s"] = d.stopTook.Seconds()
	if state, err = scanDir(dir); err != nil {
		return err
	}
	o.add("disk_bytes_per_addr", float64(totalBytes(state))/float64(len(sentRef.addrs)))

	_, end = b.tr.begin(0, root, "daemon.restart")
	d2, err := startDaemon(ctx, b.ingestd, flags...)
	if err != nil {
		return err
	}
	defer d2.kill()
	end(1)
	endRoot(int64(sentRef.observations))
	o.add("restart_ready_s", d2.readyAt.Sub(d2.execAt).Seconds())
	r, err := d2.probe(d2.control, mix.hot[0])
	o.attempted++
	if err != nil || !r.Found {
		o.fail(1, "first probe after restart: found=%v err=%v", r.Found, err)
	}
	o.layer["daemon.restart_probe_s"] = time.Since(d2.execAt).Seconds()
	if m, err := d2.scrape(); err == nil {
		o.layer["daemon.restore_s"] = m["ingestd_restore_seconds_sum"]
	}
	st, err = d2.stats()
	if err != nil {
		return err
	}
	checkCorpus(o, "after restart", st, sentRef)
	checkRecords(o, d2, d2.control, mix, sentRef)
	b.final.path, b.final.chain, b.final.events = filepath.Join(dir, "corpus.snap"), true, int(sentRef.observations)
	return d2.stop()
}

// checkRecords compares /probe replies for a sample of present keys,
// field by field, with the reference replay of everything sent.
func checkRecords(o *outcome, d *daemon, c *http.Client, mix *keyMix, ref *reference) {
	for i := 0; i < endStateSample; i++ {
		a := mix.uniform[mix.rng.Intn(len(mix.uniform))]
		r, err := d.probe(c, a)
		want := ref.addrs[a]
		got := record{r.First, r.Last, r.Count, r.Servers}
		o.attempted++
		if err != nil || !r.Found || got != want {
			o.fail(1, "probe %s after restart: got %+v found=%v err=%v, want %+v", a, got, r.Found, err, want)
		}
	}
}
