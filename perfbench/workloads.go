package main

import (
	"time"

	"repro/internal/serve"
)

// The single-turn traffic and ladder. The hot (built-in) library takes
// hotShare of the arrivals and the rest is split evenly over the small
// skills; lowRate is the rung where two requests rarely overlap; highRate
// is a fixed rung at about 30% of the reference knee (~350/s on the 2-core
// reference box), where requests start to queue and gather into batches
// (its tail is about 1.7 times the low rung's). It sits that low because
// its median must repeat from run to run on a host whose speed drifts, and
// queueing multiplies a slow run's latency: over ten seeds its median
// spread 0.07 at 100/s, 0.18–0.28 at 150/s, and 0.45 over five at 200/s.
// The knee search bisects [highRate, maxRate) on a grid of kneeGrain;
// limitMS is the knee rule's tail-latency limit. Rates are offered
// requests per second.
const (
	hotShare = 0.8
	lowRate  = 25
	highRate = 100
	maxRate  = 450
	limitMS  = 100
)

// The capped unit-preset training runs: the built-in library's (serving
// set-up and build-train), and each small example library's. Each cap is
// the smallest that keeps the parser's mean output length near the
// uncapped one's (built-in: 10.2 tokens against 11.2 uncapped, where 600
// steps give 6.0; example skills: 9.9 and 11.7 against 11.3 and 10.8), so
// decode does the work a fully trained parser would.
var (
	hotRecipe  = recipe{MaxSteps: 1500, LMSteps: 150}
	coldRecipe = recipe{MaxSteps: 300, LMSteps: 30}
)

// serveOptions is every skill shard's batcher configuration: the fleet CLI
// defaults (batch 8, 2ms gather, one worker per CPU), greedy.
func serveOptions() serve.Options {
	return serve.Options{MaxBatch: 8, MaxWait: 2 * time.Millisecond}
}
