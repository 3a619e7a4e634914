package main

import (
	"math"
	"math/rand"
	"time"
)

// stepSeed derives the RNG seed of one ladder step from the workload seed,
// so every step's schedule is fixed by (seed, step) alone and a step's
// schedule does not depend on how many draws earlier steps made.
func stepSeed(seed int64, step int) int64 {
	return seed*1_000_003 + int64(step)*7_919 + 17
}

// poissonArrivals returns the offsets, from the step start, of a Poisson
// arrival process at rate per second over dur: exponential inter-arrival
// gaps drawn from rng. The schedule is open-loop: it is fixed before the
// step runs and does not wait for replies.
func poissonArrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	if rate <= 0 || dur <= 0 {
		return nil
	}
	out := make([]time.Duration, 0, int(rate*dur.Seconds()*1.2)+4)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// stepResult is one ladder step as the knee rule sees it.
type stepResult struct {
	Rate     float64 // offered requests per second
	Attempts int
	Failed   int // errors, sheds, timeouts and correctness failures
	Lat      timing
	// BacklogMid and BacklogEnd are the requests that were due but not yet
	// answered at the middle and at the end of the step's schedule.
	BacklogMid, BacklogEnd int
}

// failFrac is the share of the step's attempts that failed.
func (s stepResult) failFrac() float64 { return ratio(float64(s.Failed), float64(s.Attempts)) }

// growing reports a backlog that is still building when the schedule ends:
// larger than at mid-step, and beyond what Poisson bunching leaves behind at
// a sustainable rate (ten requests, or 5% of the step). Such a step is past
// the knee whatever its percentiles say, because its latency figures would
// keep rising with the step length.
func (s stepResult) growing() bool {
	floor := max(10, s.Attempts/20)
	return s.BacklogEnd > floor && s.BacklogEnd > s.BacklogMid
}

// passes applies the knee criteria to one step: tail latency within the
// limit, at most 1% failed, no growing backlog.
func (s stepResult) passes(limitMS float64) bool {
	return s.Attempts > 0 && s.Lat.Tail <= limitMS && s.failFrac() <= 0.01 && !s.growing()
}

// kneeSearch finds the highest passing rate on a ladder by bisection: lo
// passed, hi is taken to fail, and each of at most steps probes tries the
// ladder rate (a multiple of grain) midway between them. try runs a probe
// and reports whether it passed. It returns the highest rate that passed —
// lo itself if no probe did — and the probed rates in order.
func kneeSearch(lo, hi, grain float64, steps int, try func(rate float64) bool) (float64, []float64) {
	var probed []float64
	for i := 0; i < steps; i++ {
		mid := math.Round((lo+hi)/2/grain) * grain
		if mid <= lo || mid >= hi {
			break
		}
		probed = append(probed, mid)
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probed
}
