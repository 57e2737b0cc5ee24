package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// minRepeats is the fewest repeats a workload runs whatever -seconds
// says: a median needs at least three values.
const minRepeats = 3

// repeat is what one repeat (or one serve-durable cycle) measured: one
// value per metric, and how much of the machine the hypervisor withheld
// while it ran.
type repeat struct {
	samples map[string]float64
	// steal is the share of the ticks in which a CPU of the machine had
	// work, over the repeat, in which the hypervisor ran something else.
	steal float64
}

func (r *repeat) add(name string, v float64) { r.samples[name] = v }

// measureRepeat runs one and notes the steal share over it.
func measureRepeat(one func(r *repeat) error) (*repeat, error) {
	r := &repeat{samples: make(map[string]float64)}
	steal0, busy0, err := hostTicks()
	if err != nil {
		return nil, err
	}
	if err := one(r); err != nil {
		return nil, err
	}
	steal1, busy1, err := hostTicks()
	if err != nil {
		return nil, err
	}
	r.steal = ratio(float64(steal1-steal0), float64(busy1-busy0))
	return r, nil
}

// stealLimit is the steal share above which a repeat counts as
// disturbed. On the shared two-core VM this was written on, quiet
// repeats read 0 to 0.02 (a tick or two of 150) and make 1.05-1.2 M
// events/s on udp-grow; repeats at 0.07, 0.10 and 0.29 made 0.87, 0.80
// and 0.50 M.
const stealLimit = 0.03

// undisturbed returns, in run order, the repeats the hypervisor left
// alone: those at or under stealLimit, and in any case the cleanest
// quarter of them (at least minRepeats), so that a run inside a noisy
// spell still reports from its least disturbed repeats.
func undisturbed(reps []*repeat) []*repeat {
	steals := make([]float64, len(reps))
	for i, r := range reps {
		steals[i] = r.steal
	}
	sort.Float64s(steals)
	limit := stealLimit
	if atLeast := min(len(steals), max(minRepeats, (len(steals)+3)/4)); atLeast > 0 {
		limit = max(limit, steals[atLeast-1])
	}
	var kept []*repeat
	for _, r := range reps {
		if r.steal <= limit {
			kept = append(kept, r)
		}
	}
	return kept
}

// keepUndisturbed folds the samples of the undisturbed repeats into the
// outcome and notes how the host treated the run. Every repeat's
// correctness checks have been counted already.
func (o *outcome) keepUndisturbed(reps []*repeat) {
	kept := undisturbed(reps)
	for _, r := range kept {
		for name, v := range r.samples {
			o.add(name, v)
		}
	}
	var steals []float64
	for _, r := range reps {
		steals = append(steals, r.steal)
	}
	o.layer["host.steal_share"] = median(steals)
	o.layer["host.repeats_dropped"] = float64(len(reps) - len(kept))
}

// repeatUntil calls one(rep, r) until the time budget is used — it
// stops once another repeat as long as the last would overrun it — and
// keeps the samples of the undisturbed repeats. A repeat that adds no
// sample (it was discarded) is not counted.
func repeatUntil(o *outcome, seconds float64, one func(rep int, r *repeat) error) error {
	var reps []*repeat
	start := time.Now()
	for rep := 0; ; rep++ {
		t := time.Now()
		r, err := measureRepeat(func(r *repeat) error { return one(rep, r) })
		if err != nil {
			return err
		}
		if len(r.samples) > 0 {
			reps = append(reps, r)
		}
		last := time.Since(t)
		if rep+1 >= minRepeats && (time.Since(start)+last).Seconds() > seconds {
			o.keepUndisturbed(reps)
			return nil
		}
	}
}

// runUDPGrow sends the whole stream to a fresh daemon with no snapshot
// dir, a new process each repeat: every fourth event inserts an address.
func runUDPGrow(ctx context.Context, b *bench, o *outcome) error {
	return repeatUntil(o, b.cfg.seconds, func(rep int, r *repeat) error {
		return b.udpRepeat(ctx, o, r, rep, nil, b.grow, b.growRef)
	})
}

// prepareResight has ingestd itself write the corpus.snap the
// udp-resight repeats start from: the whole stream in, SIGTERM, final
// checkpoint out.
func prepareResight(ctx context.Context, b *bench) error {
	b.preloadDir = filepath.Join(b.work, "preload")
	if err := os.RemoveAll(b.preloadDir); err != nil {
		return err
	}
	d, err := startDaemon(ctx, b.ingestd, "-snapshot.dir", b.preloadDir)
	if err != nil {
		return err
	}
	defer d.kill()
	s, err := newSender(d.udpPort)
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.send(b.grow.datagrams); err != nil {
		return err
	}
	if s.drops != 0 {
		return fmt.Errorf("preload lost %d datagrams in the kernel", s.drops)
	}
	sent := uint64(len(b.grow.events))
	if _, _, err := d.waitStats(ctx, func(st daemonStats) bool {
		return st.UDP.Events == sent && st.Metrics.Processed == sent
	}); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	again := resight(b.stream)
	b.again = encodeWire(again)
	b.againRef = newReference(len(b.growRef.addrs))
	b.againRef.observe(b.stream.Events)
	b.againRef.observe(again)
	return nil
}

// runUDPResight starts each repeat on a copy of the preloaded snapshot
// dir and sends the re-sighting pass: no address is new.
func runUDPResight(ctx context.Context, b *bench, o *outcome) error {
	dir := filepath.Join(b.work, "resight")
	err := repeatUntil(o, b.cfg.seconds, func(rep int, r *repeat) error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := copyDir(b.preloadDir, dir); err != nil {
			return err
		}
		return b.udpRepeat(ctx, o, r, rep, []string{"-snapshot.dir", dir}, b.again, b.againRef)
	})
	if err != nil {
		return err
	}
	// The last repeat's SIGTERM wrote a final checkpoint holding both
	// passes; a daemon restored from it must report exactly them.
	d, err := startDaemon(ctx, b.ingestd, "-snapshot.dir", dir)
	if err != nil {
		return err
	}
	defer d.kill()
	st, err := d.stats()
	if err != nil {
		return err
	}
	checkCorpus(o, "restored from the final checkpoint", st, b.againRef)
	b.final.path, b.final.events = filepath.Join(dir, "corpus.snap"), len(b.again.events)
	return d.stop()
}

// checkCorpus compares a /stats reply with the reference replay.
func checkCorpus(o *outcome, when string, st daemonStats, ref *reference) {
	check(o, "unique_addrs "+when, st.UniqueAddrs, len(ref.addrs))
	check(o, "unique_iids "+when, st.UniqueIIDs, len(ref.iids))
	check(o, "observations "+when, st.Observations, ref.observations)
}

// udpRepeat is one repeat of a udp-* workload: start a daemon, push the
// wire through its socket as fast as it drains, wait until it has
// processed every event, check the corpus it reports, stop it.
//
// Timing: ingest_eps counts from the first datagram to the /stats reply
// showing udp.events = metrics.processed = sent; /stats is not touched
// before the last send. The daemon's CPU is read from /proc at those
// same two instants.
func (b *bench) udpRepeat(ctx context.Context, o *outcome, r *repeat, rep int, flags []string, w *wire, want *reference) error {
	tr := b.tracerFor(rep)
	traced := tr != nil
	root, endRoot := tr.begin(rep, 0, "repeat")
	events := len(w.events)

	_, end := tr.begin(rep, root, "daemon.start")
	d, err := startDaemon(ctx, b.ingestd, flags...)
	if err != nil {
		return err
	}
	defer d.kill()
	end(1)
	b.daemonFlags = d.flags
	s, err := newSender(d.udpPort)
	if err != nil {
		return err
	}
	defer s.Close()

	// What only a traced repeat does: scrape /metrics before the burst as
	// well as after it, and sample the daemon's CPU in /proc at 10 Hz
	// while it ingests. The untraced repeats beside it do neither, which
	// is what trace.overhead_share compares.
	var m0 map[string]float64
	var sampler *procSampler
	if traced {
		if m0, err = d.scrape(); err != nil {
			return err
		}
		sampler = startProcSampler(d.pid(), procSamplePeriod)
		defer sampler.stop()
	}

	b.dither()
	cpu0, err := procCPUSeconds(d.pid())
	if err != nil {
		return err
	}
	_, end = tr.begin(rep, root, "udp.send")
	t0 := time.Now()
	if err := s.send(w.datagrams); err != nil {
		return err
	}
	end(int64(len(w.datagrams)))
	o.attempted += int64(events)
	o.layer["udp.kernel_drops"] += float64(s.drops)
	if s.drops != 0 {
		// The kernel drops at enqueue, so the count is final once the
		// last datagram is sent. A lossy repeat would never report every
		// event processed; it is discarded and its lost events count as
		// failed.
		o.fail(int64(s.drops)*linesPerDatagram, "repeat %d: kernel dropped %d datagrams", rep, s.drops)
		return nil
	}

	_, end = tr.begin(rep, root, "ingest.drain")
	sent := uint64(events)
	_, tDone, err := d.waitStats(ctx, func(st daemonStats) bool {
		return st.UDP.Events == sent && st.Metrics.Processed == sent
	})
	end(int64(events))
	if err != nil {
		o.fail(int64(events), "repeat %d: %v", rep, err)
		return nil
	}
	cpu1, err := procCPUSeconds(d.pid())
	if err != nil {
		return err
	}
	if traced {
		r.add("daemon.cores_busy", coresBusy(sampler.stop()))
	}

	_, end = tr.begin(rep, root, "store.visible")
	_, tVisible, err := d.waitStats(ctx, func(st daemonStats) bool {
		return st.Observations >= want.observations
	})
	end(int64(events))
	if err != nil {
		return err
	}
	// /stats reads its three corpus counters under separate locks, so the
	// reply that first shows every observation may have counted addresses
	// before the last shard merged. The corpus is at rest now; the reply
	// to check is the next one.
	statsStart := time.Now()
	st, err := d.stats()
	if err != nil {
		return err
	}
	statsTook := time.Since(statsStart)
	m, err := d.scrape()
	if err != nil {
		return err
	}
	_, end = tr.begin(rep, root, "daemon.stop")
	if err := d.stop(); err != nil {
		return err
	}
	end(1)
	endRoot(int64(events))

	// Counters read as what the repeat added: m0 is the scrape before the
	// burst in a traced repeat and empty otherwise (a daemon that has
	// ingested nothing yet counts zero).
	added := func(series string) float64 { return m[series] - m0[series] }
	checkCorpus(o, fmt.Sprintf("after repeat %d", rep), st, want)
	gap := float64(sent) - added("ingest_events_enqueued_total") - added("ingest_events_dropped_total") - added("ingestd_malformed_lines")
	check(o, "ingest.accounting_gap", gap, 0)

	wall := tDone.Sub(t0).Seconds()
	r.add("events_per_s", float64(events)/wall)
	r.add("cpu_us_per_event", (cpu1-cpu0)/float64(events)*1e6)
	r.add("peak_rss_mb", d.peakRSSMB)
	if flags != nil {
		r.add("restart_ready_s", d.readyAt.Sub(d.execAt).Seconds())
		r.add("daemon.restore_s", m["ingestd_restore_seconds_sum"])
	}
	if traced {
		r.add("traced.events_per_s", float64(events)/wall)
	} else if b.tr != nil {
		r.add("untraced.events_per_s", float64(events)/wall)
	}

	perEventNS := func(seconds float64) float64 { return seconds / float64(events) * 1e9 }
	r.add("udp.datagrams_per_read", ratio(added("ingest_udp_batch_events_sum"), added("ingest_udp_batch_events_count")))
	r.add("udp.rxq_high_water_bytes", float64(s.rxqHigh))
	r.add("udp.sender_wait_share", s.waitShare())
	r.add("ingest.stage.categories.ns_per_event", perEventNS(added(`ingest_stage_seconds_sum{stage="categories"}`)))
	r.add("ingest.stage.cardinality.ns_per_event", perEventNS(added(`ingest_stage_seconds_sum{stage="cardinality"}`)))
	r.add("ingest.batch.busy_share", ratio(sumSeries(m, "ingest_batch_seconds_sum")-sumSeries(m0, "ingest_batch_seconds_sum"), float64(st.Shards)*wall))
	r.add("ingest.queue.high_water", maxSeries(m, "ingest_queue_high_water"))
	r.add("ingest.merge.count", added("ingest_merge_seconds_count"))
	r.add("ingest.merge.s_total", added("ingest_merge_seconds_sum"))
	r.add("ingest.accounting_gap", gap)
	r.add("store.visible_lag_ms", tVisible.Sub(tDone).Seconds()*1e3)
	r.add("http.stats_ms", statsTook.Seconds()*1e3)
	r.add("daemon.shutdown_s", d.stopTook.Seconds())
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// copyDir copies the regular files of src (one level) into a new dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
