package main

import "time"

// clock lets the open-loop scheduler run on a synthetic clock in tests.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { sleepFor(d) }

// openLoopSample is one operation of an open-loop run. Latency counts
// from when the operation was due, not from when it was issued, so an
// operation delayed by a stall of the one before it carries that wait;
// late is how far behind schedule the generator issued it.
type openLoopSample struct {
	latency time.Duration
	late    time.Duration
}

// runOpenLoop issues op(i) on one goroutine at the fixed schedule
// start + i*interval for every due time before until, never skipping
// an operation: after a stall the overdue ones go out back to back.
func runOpenLoop(c clock, start time.Time, interval time.Duration, until time.Time, op func(i int)) []openLoopSample {
	var out []openLoopSample
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(until) {
			return out
		}
		if wait := due.Sub(c.Now()); wait > 0 {
			c.Sleep(wait)
		}
		issued := c.Now()
		op(i)
		out = append(out, openLoopSample{
			latency: c.Now().Sub(due),
			late:    issued.Sub(due),
		})
	}
}
