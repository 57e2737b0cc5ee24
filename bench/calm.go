package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host this benchmark was written on is a shared VM with spells,
// minutes long and a few an hour, in which the hypervisor withholds
// 10-30 % of the CPU time the guest asks for (steal): throughput halves,
// CPU time per event rises by a quarter, one set-up took 15 s instead of
// 0.8. Ten runs in a row inside such a spell spread wider than any
// bound. So before it sets up and before it measures, a run asks the
// host whether it is calm, and waits if it is not.
const (
	// calmProbe is how long every CPU is kept busy to see how much of
	// that the hypervisor withholds: 100 ticks on two CPUs, of which a
	// quiet host steals none or one.
	calmProbe = 500 * time.Millisecond
	// calmPause is the sleep between two probes of a host that is not calm.
	calmPause = 4 * time.Second
	// calmPerRun is the most one invocation waits before it measures
	// anyway; calmPerCheckout the most all invocations in one checkout
	// wait together (kept in .bench_build/calm_waited_s), so that a host
	// that is never calm costs a bounded share of the benchmark's time.
	calmPerRun      = 60 * time.Second
	calmPerCheckout = 400 * time.Second
)

// stealUnderLoad keeps every CPU busy for d and returns the share of
// that the hypervisor withheld.
func stealUnderLoad(d time.Duration) (float64, error) {
	steal0, busy0, err := hostTicks()
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
			}
		}()
	}
	wg.Wait()
	steal1, busy1, err := hostTicks()
	if err != nil {
		return 0, err
	}
	return ratio(float64(steal1-steal0), float64(busy1-busy0)), nil
}

func (b *bench) calmFile() string { return filepath.Join(b.buildDir, "calm_waited_s") }

// awaitCalm returns once a probe reads at most stealLimit — two probes
// in a row once one has read more, because inside a spell a single calm
// half second is chance — or once the waiting allowance of this run or
// of this checkout is used up. What the run waited in all is
// host.calm_wait_s.
func (b *bench) awaitCalm(ctx context.Context) error {
	var before time.Duration
	if data, err := os.ReadFile(b.calmFile()); err == nil {
		if s, err := strconv.ParseFloat(strings.TrimSpace(string(data)), 64); err == nil {
			before = time.Duration(s * float64(time.Second))
		}
	}
	var waited time.Duration // pauses and the probes after them; the first probe is not waiting
	calm, wanted := 0, 1
	for pausedAt := (time.Time{}); ; {
		steal, err := stealUnderLoad(calmProbe)
		if err != nil {
			return err
		}
		if !pausedAt.IsZero() {
			waited += time.Since(pausedAt)
		}
		if steal <= stealLimit {
			calm++
		} else {
			calm, wanted = 0, 2
		}
		if calm >= wanted || b.calmWaited+waited >= calmPerRun || before+waited >= calmPerCheckout {
			if waited > 0 {
				b.calmWaited += waited
				total := strconv.FormatFloat((before + waited).Seconds(), 'f', 1, 64)
				if err := os.WriteFile(b.calmFile(), []byte(total+"\n"), 0o644); err != nil {
					return err
				}
			}
			return nil
		}
		pausedAt = time.Now()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(calmPause):
		}
	}
}
