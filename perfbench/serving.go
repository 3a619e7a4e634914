package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"
)

// setupRuns is how many complete set-ups a serving run performs; setup_s
// is their median, and the last one serves the measured traffic.
const setupRuns = 3

// kneeGrain is the rate grid the knee search probes on, kneeProbes the
// number of bisection probes — the knee is resolved to (maxRate -
// highRate) / 32, about 4% of it — and kneeRetries how many missed probes
// may be run a second time.
const (
	kneeGrain   = 5
	kneeProbes  = 5
	kneeRetries = 2
)

// A traced run sends stickySessions sessions of stickyTurns turns through
// the gateway after the ladder.
const (
	stickySessions = 60
	stickyTurns    = 3
)

// runServing runs the single-turn workload: setupRuns fresh set-ups, then
// the open-loop ladder against the last, then the correctness gate; traced
// runs add a short run of sessions through the gateway, the per-layer
// measurements and the replays.
//
// The measured seconds S split into an unrecorded warm-up of S/20 at the
// low rate, the low rung of S/3, the high rung of S/4, and bisection
// probes of S/10 between highRate and maxRate. A probe that misses the
// knee criteria is run once more (at most kneeRetries times per run)
// before the search treats its rate as past the knee, so one transient
// stall does not halve the search. A high rung that misses is probed again
// the same way; if the host cannot hold it, the search runs between the
// low and the high rate instead.
func runServing(o options) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep := &report{values: metrics{}}
	var setups, trainRates []float64
	var c *cluster
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		var err error
		c, err = setupCluster(filepath.Join(o.workDir, fmt.Sprintf("setup-%d", i)), tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		hot := c.skill(hotSkill)
		trainRates = append(trainRates, ratio(float64(hot.recipe.MaxSteps+hot.recipe.LMSteps), hot.trainS))
		if i < setupRuns-1 {
			c.close()
		}
	}
	rep.notef("setup: %s s (median of %d; first from process start)", fmtList(setups), setupRuns)
	rep.values["setup_s"] = median(setups)
	rep.values["train_ex_per_s"] = median(trainRates)

	lg := newLoadGen(c, o.seed)
	pl := newPlanner(o.seed, hotShare, lg.poolSizes())
	S := time.Duration(o.seconds) * time.Second
	lg.run(pl.step(lowRate, S/20)) // warm-up: connections, pooled decode contexts, Legal memos

	var untracedLow stepRun
	if tr != nil {
		untracedLow = lg.run(pl.step(lowRate, S/8))
		tr.on.Store(true)
		tr.reset()
	}
	ms := &measured{}
	var prof *profile
	if tr != nil {
		prof = startProfile()
	}
	low := ms.add(lg, tr, pl.step(lowRate, S/3), "low")
	high := ms.add(lg, tr, pl.step(highRate, S/4), "high")
	retries := kneeRetries
	probe := func(rate float64) bool {
		if ms.add(lg, tr, pl.step(rate, S/10), "probe").passes(limitMS) {
			return true
		}
		if retries == 0 {
			return false
		}
		retries--
		return ms.add(lg, tr, pl.step(rate, S/10), "retry").passes(limitMS)
	}
	kneeRate := 0.0
	switch {
	case high.passes(limitMS) || probe(highRate):
		kneeRate, _ = kneeSearch(highRate, maxRate, kneeGrain, kneeProbes, probe)
	case low.passes(limitMS):
		// The host could not hold the high rung: search below it.
		kneeRate, _ = kneeSearch(lowRate, highRate, kneeGrain, kneeProbes, probe)
	}
	var shares map[string]float64
	if prof != nil {
		if d, err := prof.stop(); err == nil {
			shares = d.layerShares()
		}
	}
	// Sessions exercise the gateway's sticky routing, which single
	// requests never reach; they are gated and counted like the ladder's.
	var sessions [][]outcome
	all := ms.runs
	if tr != nil {
		sessions = lg.runSessions(stickySessions, stickyTurns)
		tr.on.Store(false)
		sr := &stepRun{}
		for _, s := range sessions {
			sr.outcomes = append(sr.outcomes, s...)
		}
		all = append(all[:len(all):len(all)], sr)
	}

	g := newGate(lg)
	for _, r := range all {
		g.check(r)
	}
	lg.close()
	c.close()
	// Data-pipeline throughput is measured on the idle process: during
	// set-up the data builds share the CPU with other skills' training.
	rep.values["synth_ex_per_s"] = median(pipelineRates(o.seed, 5, 3*time.Second))

	// The gate may have failed requests the live knee decisions counted
	// as answered; a gate failure fails the whole run, so the knee stands.
	low, high = ms.runs[0].summary(), ms.runs[1].summary()
	for i, r := range ms.runs {
		s := r.summary()
		verdict := "pass"
		if !s.passes(limitMS) {
			verdict = "miss"
			if s.growing() {
				verdict = "miss (backlog growing)"
			}
		}
		rep.notef("%-5s %6.1f/s: n=%d failed=%d p50=%.3fms p%.1f=%.3fms backlog mid/end=%d/%d %s",
			ms.roles[i], s.Rate, s.Attempts, s.Failed, s.Lat.P50, s.Lat.TailPc, s.Lat.Tail, s.BacklogMid, s.BacklogEnd, verdict)
	}
	rep.notef("knee: %.0f/s (limit p99 <= %dms, <= 1%% failed, no growing backlog)", kneeRate, limitMS)
	rep.values["p50_ms.low"], rep.values["loadgen.p99_ms.low"] = low.Lat.P50, low.Lat.Tail
	rep.values["p50_ms.high"], rep.values["loadgen.p99_ms.high"] = high.Lat.P50, high.Lat.Tail
	rep.values["knee_rps"] = kneeRate

	var sent, okN, shed int
	var late []float64
	for _, r := range all {
		for i := range r.outcomes {
			sent++
			switch {
			case r.outcomes[i].status == http.StatusTooManyRequests:
				shed++
			case r.outcomes[i].ok() && !r.outcomes[i].badGate:
				okN++
			}
		}
		late = append(late, r.lateMS...)
	}
	rep.attempted, rep.failed = sent, sent-okN
	rep.correct = g.Bad == 0
	for _, v := range g.Violations {
		rep.notef("gate: %s", v)
	}
	rep.notef("gate: %d served programs checked, %d violations", g.Checked, g.Bad)
	rep.values["ok_frac"] = ratio(float64(okN), float64(sent))
	rep.values["exact_match"] = ratio(float64(g.Exact), float64(g.Checked))
	rep.values["peak_rss_mb"] = peakRSSMB()
	lag := summarize(late)
	rep.values["loadgen.sent"] = float64(sent)
	rep.values["loadgen.ok"] = float64(okN)
	rep.values["loadgen.failed"] = float64(sent - okN)
	rep.values["loadgen.shed"] = float64(shed)
	rep.values["loadgen.lag_p99_ms"] = lag.Tail
	rep.notef("loadgen: lateness p50=%.3fms p%.1f=%.3fms over %d arrivals", lag.P50, lag.TailPc, lag.Tail, lag.N)

	if tr != nil {
		rep.values["gateway.sticky_frac"] = tr.followFrac(sessions)
		traced(rep, lg, tr, ms, untracedLow, low, shares)
	}
	return rep, nil
}

// measured accumulates the recorded steps and, when traced, each step's
// fleet counter deltas.
type measured struct {
	runs     []*stepRun
	roles    []string // low, high, probe or retry
	counters []fleetCounters
	depthMax int64
}

// add runs one step and records it, scraping /metrics around it and
// sampling queue depth through it when traced.
func (m *measured) add(lg *loadGen, tr *tracer, p stepPlan, role string) stepResult {
	m.roles = append(m.roles, role)
	if tr == nil {
		r := lg.run(p)
		m.runs = append(m.runs, &r)
		return r.summary()
	}
	// A failed scrape leaves zero counters: the step's per-layer deltas then
	// read wrong, but the traced run reports no bounded metric from them.
	hc := &http.Client{Timeout: 5 * time.Second}
	before, _ := scrape(hc, lg.c.backends)
	ds := startDepthSampler(hc, lg.c.backends, 50*time.Millisecond)
	r := lg.run(p)
	m.depthMax = max(m.depthMax, ds.finish())
	after, _ := scrape(hc, lg.c.backends)
	hc.CloseIdleConnections()
	m.runs = append(m.runs, &r)
	m.counters = append(m.counters, after.sub(before))
	return r.summary()
}

// traced fills the per-layer metrics of a serving run: the wrappers' hop
// timings, the /metrics deltas, the profile shares, and the direct layer
// replays on the served snapshots, and the contextual replay.
func traced(rep *report, lg *loadGen, tr *tracer, ms *measured, untracedLow stepRun, low stepResult, shares map[string]float64) {
	v := rep.values
	hs := tr.hops(ms.runs[0].outcomes, ms.runs)
	v["fleet.handler_p50_ms"] = hs.handler.P50
	v["fleet.handler_p99_ms"] = hs.handler.Tail
	v["gateway.overhead_p50_ms"] = hs.overhead.P50
	v["gateway.overhead_p99_ms"] = hs.overhead.Tail
	v["gateway.attempts_per_req"] = hs.attempts
	v["gateway.backend_share_max"] = hs.shareMax
	rep.notef("hops: fleet handler p50=%.3fms p%.1f=%.3fms n=%d; gateway+client overhead p50=%.3fms p%.1f=%.3fms",
		hs.handler.P50, hs.handler.TailPc, hs.handler.Tail, hs.handler.N, hs.overhead.P50, hs.overhead.TailPc, hs.overhead.Tail)

	var sum fleetCounters
	for _, c := range ms.counters {
		sum = sum.add(c)
	}
	v["serve.batch_fill_mean"] = sum.fillMean()
	v["serve.batch_fill_mean.low"] = ms.counters[0].fillMean()
	v["serve.batches"] = float64(sum.Batches)
	v["serve.queue_depth_max"] = float64(ms.depthMax)
	rep.notef("batch-size histogram over the ladder: %v", sum.Hist)

	base := untracedLow.summary()
	v["trace.overhead_p50_ms"] = low.Lat.P50 - base.Lat.P50
	rep.notef("tracing overhead at the low rung: p50 %.3fms traced vs %.3fms untraced", low.Lat.P50, base.Lat.P50)
	for _, l := range shareLayers {
		v["cpu_share."+l] = shares[l]
	}

	// Direct replays on the hot skill's served snapshot, then the
	// contextual layers on the same skill.
	hot := lg.skills[0]
	var sents [][]string
	for _, ex := range sample(hot.pool, 60) {
		sents = append(sents, ex.Words)
	}
	layerReplays(rep, hot, sents, v["serve.batch_fill_mean"], servedPrograms(ms, 0))
	replayDialogue(rep, hot)
}

// servedPrograms lists one skill's served programs in serving order.
func servedPrograms(ms *measured, skill int) [][]string {
	var out [][]string
	for _, r := range ms.runs {
		for i := range r.outcomes {
			if o := &r.outcomes[i]; o.skill == skill && o.ok() {
				out = append(out, o.tokens)
			}
		}
	}
	return out
}

// layerReplays runs the direct replays shared by every workload: nn
// kernels, model decode (profiled for the dense-kernel and pointer-mix
// shares), grammar walk, training steps and synthesis stages.
func layerReplays(rep *report, st *skillState, sents [][]string, fill float64, programs [][]string) {
	v := rep.values
	srcLen := 0
	for _, s := range sents {
		srcLen += len(s)
	}
	srcLen = max(1, srcLen/max(1, len(sents)))
	replayNN(st.parser, srcLen, v)
	if prof := startProfile(); prof != nil {
		for end := time.Now().Add(1500 * time.Millisecond); time.Now().Before(end); {
			for _, s := range sents {
				st.parser.Parse(s)
			}
		}
		if d, err := prof.stop(); err == nil {
			v["model.greedy_nn_share"] = d.layerShares()["nn"]
			v["model.greedy_matmul_share"] = d.share(leafIn("atMul"))
			v["model.greedy_encoder_share"] = d.share(frameIn("(*Parser).encode"))
			v["model.mix_scorer_share"] = d.share(leafIn("mixScorer", "bestToken", "maskedBest"))
		}
	}
	replayModel(st.parser, sents, fill, v)
	pairs, lm, vocab := trainingSet(st)
	if _, tv := st.parser.VocabSizes(); tv != len(vocab) {
		rep.notef("warning: rebuilt target vocabulary has %d tokens, the parser %d", len(vocab), tv)
	}
	replayGrammar(st.parser, vocab, programs, v)
	replayTrain(st, pairs, lm, 60, v)
	replaySynth(st, recipeSeed, v)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ", ")
}
