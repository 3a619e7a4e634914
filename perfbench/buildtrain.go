package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/genie"
	"repro/internal/nltemplate"
	"repro/internal/thingpedia"
)

// decodeTime is how long build-train decodes the held-out split, one at a
// time and in windows of 8, after each training pass; its throughput probe
// runs for half as long.
const decodeTime = 1500 * time.Millisecond

// runBuildTrain runs the offline workload: repeated data-pipeline passes
// over the built-in library (synthesis → paraphrase → augmentation, seeds
// drawn from the workload seed), then repeated capped training runs on the
// recipe-seed data, then a held-out decode of the trained parser.
//
// An offline run has no offered load, so its serving-shaped metrics are
// the held-out decode in process: low is one sentence at a time, high is
// windows of 8 through the batched decode (each sentence waits for its
// window), and knee_rps is decode throughput with one goroutine per core.
func runBuildTrain(o options) (*report, error) {
	rep := &report{values: metrics{}}
	lib := thingpedia.Builtin()

	// Set-up: everything before the timed work — the recipe-seed data
	// build that training consumes. It is repeated after
	// the pipeline passes and after every training pass, each repetition
	// timed alone, and setup_s is the median: the host's speed drifts, and
	// set-ups spread over the run rarely all land in one slow stretch, as
	// set-ups run back to back do.
	var setups []float64
	setup := func(start time.Time) *genie.Data {
		d := genie.BuildData(lib, nltemplate.DefaultOptions, genie.Unit, recipeSeed)
		setups = append(setups, time.Since(start).Seconds())
		return d
	}
	d := setup(processStart)

	budget := time.Duration(o.seconds) * time.Second
	var prof *profile
	if o.trace {
		prof = startProfile()
	}

	// Data-pipeline passes: a quarter of the budget, at least three.
	passStart := time.Now()
	synthRates := pipelineRates(o.seed, 3, budget/4)
	rep.values["synth_ex_per_s"] = median(synthRates)
	rep.notef("pipeline: %d passes, examples/s %s", len(synthRates), fmtList(synthRates))
	setup(time.Now())

	// Training passes on the recipe-seed data until the budget is spent.
	// Training is deterministic, so every pass must produce the same
	// parser; the held-out predictions of each pass are compared. After
	// each pass the held-out split is decoded once more, so the decode
	// figures sample the whole run rather than one moment of it.
	pool := heldOut(d)
	sents := make([][]string, len(pool))
	for i := range pool {
		sents[i] = pool[i].Words
	}
	var (
		trainRates, kneeRates, lowLat, highLat []float64
		st                                     *skillState
		first                                  [][]string
		bad                                    int
	)
	for k := 0; k < 1 || time.Since(passStart) < budget; k++ {
		t0 := time.Now()
		tp := d.Train(genie.TrainOptions{
			Strategy: genie.StrategyGenie, Topt: genie.CanonicalTargets,
			Model: hotRecipe.modelConfig(), Seed: recipeSeed,
		})
		trainRates = append(trainRates, float64(hotRecipe.MaxSteps+hotRecipe.LMSteps)/time.Since(t0).Seconds())
		p := tp.Parser
		// Decode the held-out split in rounds for decodeTime, so the
		// decode figures rest on seconds of the run, not one burst.
		var seq [][]string
		for r, d0 := 0, time.Now(); r == 0 || time.Since(d0) < decodeTime; r++ {
			round := make([][]string, len(sents))
			for i, s := range sents {
				t0 := time.Now()
				round[i] = p.Parse(s)
				lowLat = append(lowLat, msSince(t0))
			}
			for i := 0; i < len(sents); i += 8 {
				w := sents[i:min(len(sents), i+8)]
				t0 := time.Now()
				out := p.ParseBatch(w)
				ms := msSince(t0)
				for j := range w {
					highLat = append(highLat, ms)
					if strings.Join(out[j], " ") != strings.Join(round[i+j], " ") {
						bad++
						rep.notef("gate: batched decode of %q differs from sequential", strings.Join(w[j], " "))
					}
				}
			}
			if r == 0 {
				seq = round
			} else if !equalPrograms(round, seq) {
				bad++
				rep.notef("gate: decode round %d of training pass %d differs from the first", r+1, k+1)
			}
		}
		kneeRates = append(kneeRates, decodeThroughput(p, sents, decodeTime/2))
		if k == 0 {
			st = &skillState{name: hotSkill, lib: lib, data: d, parser: p, recipe: hotRecipe, pool: pool}
			first = seq
		} else if !equalPrograms(seq, first) {
			bad++
			rep.notef("gate: training pass %d with the same seed produced a different parser", k+1)
		}
		setup(time.Now())
	}
	rep.values["setup_s"] = median(setups)
	rep.notef("setup: %s s (median of %d; first from process start)", fmtList(setups), len(setups))
	rep.values["train_ex_per_s"] = median(trainRates)
	rep.notef("training: %d passes of %d+%d steps, examples/s %s", len(trainRates),
		hotRecipe.MaxSteps, hotRecipe.LMSteps, fmtList(trainRates))
	var shares map[string]float64
	if prof != nil {
		if d, err := prof.stop(); err == nil {
			shares = d.layerShares()
		}
	}

	// The correctness gate ran above: the batched decode must equal the
	// one-at-a-time decode, and retraining must reproduce the parser.
	p := st.parser
	low, high := summarize(lowLat), summarize(highLat)
	rep.values["p50_ms.low"], rep.values["loadgen.p99_ms.low"] = low.P50, low.Tail
	rep.values["p50_ms.high"], rep.values["loadgen.p99_ms.high"] = high.P50, high.Tail
	rep.notef("held-out decode: one at a time p50=%.3fms p%.1f=%.3fms n=%d; windows of 8 p50=%.3fms p%.1f=%.3fms n=%d",
		low.P50, low.TailPc, low.Tail, low.N, high.P50, high.TailPc, high.Tail, high.N)
	rep.values["knee_rps"] = median(kneeRates)
	r := eval.Evaluate(p, pool, lib)
	rep.values["exact_match"] = float64(r.Correct) / float64(r.Total)
	rep.attempted, rep.failed = len(lowLat), bad
	rep.correct = bad == 0
	rep.values["ok_frac"] = 1 - ratio(float64(bad), float64(rep.attempted))
	rep.values["peak_rss_mb"] = peakRSSMB()
	rep.notef("gate: %d held-out decodes checked, %d violations", rep.attempted, bad)

	if o.trace {
		for _, l := range shareLayers {
			rep.values["cpu_share."+l] = shares[l]
		}
		layerReplays(rep, st, sample(sents, 60), 1, first)
	}
	return rep, nil
}

// pipelineRates runs genie.BuildData over the built-in library — at least
// n passes, and more until atLeast has passed — with pass seeds drawn from
// the workload seed, and returns each pass's examples (synthesized plus
// paraphrased) per second.
func pipelineRates(seed int64, n int, atLeast time.Duration) []float64 {
	var rates []float64
	start := time.Now()
	for k := 0; k < n || time.Since(start) < atLeast; k++ {
		t0 := time.Now()
		d := genie.BuildData(thingpedia.Builtin(), nltemplate.DefaultOptions, genie.Unit, seed*1000+int64(k))
		rates = append(rates, float64(len(d.Synth)+len(d.Paraphrases))/time.Since(t0).Seconds())
	}
	return rates
}

// equalPrograms reports whether two decodes of the same sentences agree.
func equalPrograms(a, b [][]string) bool {
	for i := range a {
		if strings.Join(a[i], " ") != strings.Join(b[i], " ") {
			return false
		}
	}
	return len(a) == len(b)
}

// decodeThroughput decodes sents round-robin on one goroutine per core for
// dur and returns sentences per second.
func decodeThroughput(p interface{ Parse([]string) []string }, sents [][]string, dur time.Duration) float64 {
	var n atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Now().Before(end); i += clientConns {
				p.Parse(sents[i%len(sents)])
				n.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return float64(n.Load()) / time.Since(start).Seconds()
}
