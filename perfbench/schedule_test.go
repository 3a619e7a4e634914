package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func testPlans(seed int64) []stepPlan {
	pl := newPlanner(seed, 0.8, []int{120, 120, 120})
	return []stepPlan{pl.step(40, 2*time.Second), pl.step(200, time.Second), pl.step(300, time.Second)}
}

// TestScheduleDeterministicPerSeed: the same seed gives the same arrivals,
// skills and items; another seed gives another schedule.
func TestScheduleDeterministicPerSeed(t *testing.T) {
	a, b := testPlans(7), testPlans(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, testPlans(8)) {
		t.Fatal("different seeds, same schedule")
	}
	for i, p := range a {
		for j := 1; j < len(p.Arrivals); j++ {
			if p.Arrivals[j].At < p.Arrivals[j-1].At || p.Arrivals[j].At >= p.Dur {
				t.Fatalf("step %d: arrivals out of order or past the step", i)
			}
		}
	}
}

// TestScheduleRateAndMix: arrival counts follow the offered rate, the hot
// skill takes its share, and each skill's items are covered cyclically.
func TestScheduleRateAndMix(t *testing.T) {
	arr := newPlanner(3, 0.8, []int{50, 10, 10}).step(500, 20*time.Second).Arrivals
	if n := float64(len(arr)); math.Abs(n-10000) > 400 {
		t.Errorf("%v arrivals for 500/s over 20s", n)
	}
	counts := map[int]int{}
	items := map[int]map[int]int{}
	for _, a := range arr {
		counts[a.Skill]++
		if items[a.Skill] == nil {
			items[a.Skill] = map[int]int{}
		}
		items[a.Skill][a.Item]++
	}
	if hot := float64(counts[0]) / float64(len(arr)); math.Abs(hot-0.8) > 0.001 {
		t.Errorf("hot share %.4f, want 0.8", hot)
	}
	// The mix is exact over every deck of ten arrivals.
	for d := 0; d+deckSize <= len(arr); d += deckSize {
		n := map[int]int{}
		for _, a := range arr[d : d+deckSize] {
			n[a.Skill]++
		}
		if n[0] != 8 || n[1] != 1 || n[2] != 1 {
			t.Fatalf("deck at %d deals %v, want 8/1/1", d, n)
		}
	}
	for sk, m := range items {
		lo, hi := math.MaxInt, 0
		for _, c := range m {
			lo, hi = min(lo, c), max(hi, c)
		}
		if hi-lo > 1 {
			t.Errorf("skill %d: item counts range %d..%d, want cyclic coverage", sk, lo, hi)
		}
	}
}

func TestPoissonArrivalsGaps(t *testing.T) {
	at := poissonArrivals(rand.New(rand.NewSource(1)), 1000, 10*time.Second)
	var sum, sq float64
	prev := time.Duration(0)
	for _, a := range at {
		g := (a - prev).Seconds()
		sum += g
		sq += g * g
		prev = a
	}
	n := float64(len(at))
	mean := sum / n
	cv := math.Sqrt(sq/n-mean*mean) / mean
	if math.Abs(mean-0.001) > 0.00005 || math.Abs(cv-1) > 0.05 {
		t.Errorf("gaps mean %.6fs cv %.3f, want exponential with mean 1ms", mean, cv)
	}
}

func step(rate float64, n int, tail float64, failed, mid, end int) stepResult {
	return stepResult{Rate: rate, Attempts: n, Failed: failed, Lat: timing{N: n, Tail: tail}, BacklogMid: mid, BacklogEnd: end}
}

// TestKneeCriteria covers the per-rung rule: tail limit, failure share
// and growing backlog.
func TestKneeCriteria(t *testing.T) {
	const limit = 50
	cases := []struct {
		name string
		s    stepResult
		pass bool
	}{
		{"within limits", step(200, 400, 20, 0, 1, 2), true},
		{"tail over limit", step(200, 400, 51, 0, 0, 0), false},
		{"failures over 1%", step(200, 400, 20, 5, 0, 0), false},
		{"1% failures pass", step(100, 200, 10, 2, 0, 0), true},
		{"growing backlog", step(200, 400, 20, 0, 12, 30), false},
		{"large but shrinking backlog", step(200, 400, 20, 0, 40, 30), true},
		{"bunching below the floor", step(200, 400, 20, 0, 2, 9), true},
		{"no requests", step(200, 0, 0, 0, 0, 0), false},
	}
	for _, c := range cases {
		if got := c.s.passes(limit); got != c.pass {
			t.Errorf("%s: passes = %v, want %v", c.name, got, c.pass)
		}
	}
}

// TestKneeSearch bisects a ladder whose rungs pass up to a capacity, with
// a growing-backlog rung and a transient miss that the retry absorbs.
func TestKneeSearch(t *testing.T) {
	const limit = 100
	rung := func(capacity float64, transient map[float64]bool) func(float64) bool {
		return func(rate float64) bool {
			s := step(rate, int(rate), 20, 0, 0, 0)
			switch {
			case transient[rate]:
				transient[rate] = false // misses once
				s.Lat.Tail = 300
			case rate > capacity+40:
				s.Lat.Tail = 400
			case rate > capacity:
				// Tail still inside the limit, but the queue is building.
				s.BacklogMid, s.BacklogEnd = 20, 60
			}
			return s.passes(limit)
		}
	}
	withRetry := func(try func(float64) bool) func(float64) bool {
		return func(rate float64) bool { return try(rate) || try(rate) }
	}
	knee, probed := kneeSearch(250, 500, 5, 4, withRetry(rung(352, nil)))
	if knee != 345 {
		t.Errorf("knee %v (probed %v), want 345: the highest probed rate at or below capacity", knee, probed)
	}
	if want := []float64{375, 315, 345, 360}; !reflect.DeepEqual(probed, want) {
		t.Errorf("probed %v, want %v", probed, want)
	}
	// A one-off miss at the first probe is retried and does not halve the search.
	if k, _ := kneeSearch(250, 500, 5, 4, withRetry(rung(352, map[float64]bool{375: false, 315: true}))); k != 345 {
		t.Errorf("knee with a transient miss = %v, want 345", k)
	}
	// Without the retry the same transient drags the knee down.
	if k, _ := kneeSearch(250, 500, 5, 4, rung(352, map[float64]bool{315: true})); k >= 315 {
		t.Errorf("knee without retry = %v, want below 315", k)
	}
	// Nothing passes: the knee is the known-good lower end.
	if k, probed := kneeSearch(250, 500, 5, 4, func(float64) bool { return false }); k != 250 || len(probed) != 4 {
		t.Errorf("all probes fail: knee %v probed %v", k, probed)
	}
	// Everything passes: the search approaches the top, never reaching it.
	if k, _ := kneeSearch(250, 500, 5, 4, func(float64) bool { return true }); k != 485 {
		t.Errorf("all probes pass: knee %v, want 485", k)
	}
}

// TestStepSummaryCountsFailuresAsMisses: failed and gate-rejected requests
// count as failed and enter the latency distribution at the timeout.
func TestStepSummaryCountsFailuresAsMisses(t *testing.T) {
	r := stepRun{plan: stepPlan{Rate: 10}}
	for i := 0; i < 20; i++ {
		r.outcomes = append(r.outcomes, outcome{status: 200, latMS: 5})
	}
	r.outcomes = append(r.outcomes, outcome{status: 503, latMS: 1}, outcome{status: 200, latMS: 2, badGate: true})
	s := r.summary()
	if s.Attempts != 22 || s.Failed != 2 {
		t.Fatalf("attempts %d failed %d, want 22 and 2", s.Attempts, s.Failed)
	}
	if want := float64(requestTimeout.Milliseconds()); s.Lat.Tail != 5 || s.Lat.N != 22 {
		t.Fatalf("tail %v over %d samples; failures should sit at %v above it", s.Lat.Tail, s.Lat.N, want)
	}
}
