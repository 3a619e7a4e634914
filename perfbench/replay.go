package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/augment"
	"repro/internal/dataset"
	"repro/internal/dialogue"
	"repro/internal/genie"
	"repro/internal/grammar"
	"repro/internal/model"
	"repro/internal/nltemplate"
	"repro/internal/nn"
	"repro/internal/params"
	"repro/internal/paraphrase"
	"repro/internal/serve"
	"repro/internal/synthesis"
	"repro/internal/thingtalk"
)

// This file replays a run's inputs directly into single layers — nn
// kernels, model decode entry points, the grammar walker, training steps,
// the synthesis stages and the contextual session path — timing each call
// from outside. Replays run
// after the serving stack is torn down, so nothing else competes for the
// CPU.

// metrics collects per-layer values by name.
type metrics map[string]float64

// perCall times fn by running it in rounds of at least minRound and returns
// the median time per call over the rounds.
func perCall(rounds int, minRound time.Duration, fn func()) time.Duration {
	fn() // warm caches and arenas
	n := 1
	var el time.Duration
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if el = time.Since(start); el >= minRound/4 {
			break
		}
		n *= 2
	}
	n = max(1, int(float64(n)*float64(minRound)/float64(el)))
	per := make([]float64, rounds)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(start)) / float64(n)
	}
	return time.Duration(median(per))
}

// replayNN times the dense kernels at the parser's dimensions: the output
// projection (hidden → target vocabulary) at batch 1 and 8, a decoder LSTM
// step at batch 8, and attention of 8 queries over 8 source memories of
// srcLen rows. Each reports the bytes a call must move (weights, inputs and
// outputs, float64) beside its time.
func replayNN(p *model.Parser, srcLen int, m metrics) {
	E, H := p.Dims()
	_, V := p.VocabSizes()
	rng := rand.New(rand.NewSource(1))
	g := nn.NewGraphArena(false, nn.NewArena())
	w, b := nn.NewRandom(H, V, rng), nn.NewRandom(1, V, rng)
	x1, x8 := nn.NewRandom(1, H, rng), nn.NewRandom(8, H, rng)
	cell := nn.NewLSTMCell(E, H, rng)
	xe, h8, c8 := nn.NewRandom(8, E, rng), nn.NewRandom(8, H, rng), nn.NewRandom(8, H, rng)
	d := 2 * H // encoder memory width (bidirectional)
	q, mem := nn.NewRandom(8, d, rng), nn.NewRandom(8*srcLen, d, rng)
	lens := make([]int, 8)
	for i := range lens {
		lens[i] = srcLen
	}
	const f = 8 // bytes per float64
	round := 20 * time.Millisecond
	m["nn.affine_ns.b1"] = ns(perCall(5, round, func() { g.Reset(); g.AffineRow(x1, w, b) }))
	m["nn.affine_bytes.b1"] = f * float64(H*V+V+H+V)
	m["nn.affine_ns.b8"] = ns(perCall(5, round, func() { g.Reset(); g.BatchedAffine(x8, w, b) }))
	m["nn.affine_bytes.b8"] = f * float64(H*V+V+8*H+8*V)
	m["nn.lstm_step_ns.b8"] = ns(perCall(5, round, func() { g.Reset(); cell.StepBatch(g, xe, h8, c8, nil) }))
	m["nn.lstm_step_bytes.b8"] = f * float64(E*4*H+H*4*H+4*H+8*(E+2*H)+8*2*H)
	m["nn.attend_ns.b8"] = ns(perCall(5, round, func() { g.Reset(); g.AttendSoftmaxContextBatch(q, mem, nil, lens) }))
	m["nn.attend_bytes.b8"] = f * float64(8*d+8*srcLen*d+8*srcLen+8*d)
	g.Reset()
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// replayModel times the parser's decode entry points on the run's held-out
// sentences: greedy one at a time (masked and unmasked), batched greedy at
// the observed gather fill and at 8, and beam 4 one at a time and batched.
// With replayDialogue's context decode, these cover what the
// batched-decode, masked-decode and context-decode bench artifacts
// measured.
func replayModel(p *model.Parser, sents [][]string, fill float64, m metrics) {
	perSent := func(fn func()) float64 {
		d := perCall(3, 50*time.Millisecond, fn)
		return float64(d.Nanoseconds()) / 1e3 / float64(len(sents))
	}
	m["model.greedy_us"] = perSent(func() {
		for _, s := range sents {
			p.Parse(s)
		}
	})
	toks := 0
	for _, s := range sents {
		toks += len(p.Parse(s))
	}
	m["model.out_tokens_mean"] = float64(toks) / float64(len(sents))
	m["model.allocs_per_parse"] = allocsPer(len(sents), func() {
		for _, s := range sents {
			p.Parse(s)
		}
	})
	fillN := max(1, int(fill+0.5))
	m["model.batch_fill"] = float64(fillN)
	m["model.batch_us"] = perSent(func() { parseWindows(p, sents, fillN, 1) })
	m["model.batch8_us"] = perSent(func() { parseWindows(p, sents, 8, 1) })
	m["model.beam4_us"] = perSent(func() {
		for _, s := range sents {
			p.ParseBeam(s, 4)
		}
	})
	m["model.beam4_batch8_us"] = perSent(func() { parseWindows(p, sents, 8, 4) })
	if plain := unmasked(p); plain != nil {
		m["model.greedy_unmasked_us"] = perSent(func() {
			for _, s := range sents {
				plain.Parse(s)
			}
		})
	}
}

// parseWindows decodes sents in windows of n through the batched greedy
// (width 1) or beam path.
func parseWindows(p *model.Parser, sents [][]string, n, width int) {
	for i := 0; i < len(sents); i += n {
		w := sents[i:min(len(sents), i+n)]
		if width > 1 {
			p.ParseBeamBatch(w, width)
		} else {
			p.ParseBatch(w)
		}
	}
}

// unmasked returns a snapshot copy of p with the grammar mask cleared, or
// nil if the copy fails.
func unmasked(p *model.Parser) *model.Parser {
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return nil
	}
	c, err := model.Load(&buf)
	if err != nil {
		return nil
	}
	if err := c.SetGrammar(nil); err != nil {
		return nil
	}
	return c
}

// allocsPer counts heap allocations per unit of fn's work (n units).
func allocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// trainingSet rebuilds the pairs, LM corpus and target vocabulary exactly as
// genie.Data.Train derives them for the recipe seed, so a replay can drive
// the same training steps and compile the same grammar automaton the
// served parser decodes under.
func trainingSet(st *skillState) (pairs []model.Pair, lm [][]string, vocab []string) {
	rng := rand.New(rand.NewSource(recipeSeed))
	train := st.data.TrainingExamples(genie.StrategyGenie, rng)
	pairs = genie.ToPairs(train, genie.CanonicalTargets, st.lib, rng)
	for i := range train {
		if train[i].Group == dataset.GroupSynthesized {
			lm = append(lm, pairs[i].Tgt)
		}
	}
	seqs := make([][]string, 0, len(pairs)+len(lm))
	for i := range pairs {
		seqs = append(seqs, pairs[i].Tgt)
	}
	seqs = append(seqs, lm...)
	return pairs, lm, model.BuildVocab(seqs, st.recipe.modelConfig().MinVocabCount).Tokens()
}

// replayGrammar walks the served programs through the parser's grammar
// automaton, recompiled over the rebuilt target vocabulary, and times the
// Legal-mask walk with and without the LegalCache memo. The memo hit
// fraction is that of one cache fed every served program in serving order,
// as one pooled decode context would see them.
func replayGrammar(p *model.Parser, vocab []string, programs [][]string, m metrics) {
	spec := p.Grammar()
	if spec == nil || len(programs) == 0 {
		return
	}
	auto, err := grammar.Compile(spec, vocab)
	if err != nil {
		return
	}
	ids := make(map[string]int, len(vocab))
	for i, t := range vocab {
		ids[t] = i
	}
	maxLen := genie.Unit.Model.MaxDecodeLen
	walk := func(cache *grammar.LegalCache) int {
		var ls grammar.LegalSet
		calls := 0
		for _, prog := range programs {
			gs := auto.Start()
			for t, tok := range prog {
				if cache != nil {
					auto.LegalCached(gs, maxLen-t-1, &ls, cache)
				} else {
					auto.Legal(gs, maxLen-t-1, &ls)
				}
				calls++
				id, ok := ids[tok]
				if !ok {
					id = -1
				}
				if gs, err = auto.Step(gs, id, tok); err != nil {
					break
				}
			}
		}
		return calls
	}
	var memo grammar.LegalCache
	calls := walk(&memo)
	hits, misses, _ := memo.Stats()
	m["grammar.memo_hit_frac"] = ratio(float64(hits), float64(hits+misses))
	m["grammar.legal_calls"] = float64(calls)
	m["grammar.legal_ns"] = ns(perCall(3, 30*time.Millisecond, func() { walk(nil) })) / float64(calls)
	m["grammar.legal_cached_ns"] = ns(perCall(3, 30*time.Millisecond, func() { walk(&memo) })) / float64(calls)
}

// replayTrain times single-row teacher-forced training steps (the path the
// paper experiments and genie train take) on the rebuilt pairs.
func replayTrain(st *skillState, pairs []model.Pair, lm [][]string, steps int, m metrics) {
	if len(pairs) == 0 {
		return
	}
	tr := model.NewTrainer(pairs, lm, st.recipe.modelConfig())
	for i := 0; i < 10; i++ { // warm the arena and scratch buffers
		tr.Step(&pairs[i%len(pairs)])
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	for i := 0; i < steps; i++ {
		tr.Step(&pairs[i%len(pairs)])
	}
	el := time.Since(start)
	runtime.ReadMemStats(&b)
	m["train.step_ms"] = float64(el.Microseconds()) / 1e3 / float64(steps)
	m["train.allocs_per_step"] = float64(b.Mallocs-a.Mallocs) / float64(steps)
}

// replaySynth times the three data-pipeline stages of genie.BuildData
// separately on one library: template synthesis, paraphrase selection and
// simulation, and parameter expansion plus PPDB augmentation.
func replaySynth(st *skillState, seed int64, m metrics) {
	sc := genie.Unit
	g := nltemplate.StandardGrammar(st.lib, nltemplate.DefaultOptions)
	t0 := time.Now()
	raw := synthesis.Synthesize(g, synthesis.Config{
		TargetPerRule: sc.SynthTarget, MaxDepth: sc.MaxDepth, Seed: seed, Schemas: st.lib,
	})
	t1 := time.Now()
	ex := make([]dataset.Example, len(raw))
	for i := range raw {
		ex[i] = dataset.Example{Words: raw[i].Words, Program: raw[i].Program, Group: dataset.GroupSynthesized, Depth: raw[i].Depth}
	}
	rng := rand.New(rand.NewSource(seed))
	sel := paraphrase.SelectForParaphrase(ex, st.lib, sc.ParaphraseMax, rng)
	res := paraphrase.Simulate(sel, paraphrase.Config{Seed: seed + 1})
	t2 := time.Now()
	src := append(ex, res.Paraphrases...)
	train := augment.Expand(src, sc.Factors, params.NewSampler(), rng)
	augment.AugmentParaphrases(train, sc.PPDBVariants, rng)
	t3 := time.Now()
	m["synth.synthesize_s"] = t1.Sub(t0).Seconds()
	m["synth.paraphrase_s"] = t2.Sub(t1).Seconds()
	m["synth.augment_s"] = t3.Sub(t2).Seconds()
}

// The contextual replay's sessions: dialogueTurns turns each, at most
// dialogueSessions of them, decoded with adaptive escalation to beam
// dialogueBeam.
const (
	dialogueTurns    = 3
	dialogueSessions = 100
	dialogueBeam     = 4
)

// replayDialogue measures the contextual layers that single requests never
// reach. It trains a contextual (dialogue-augmented) parser for the skill
// at its recipe and masks it; then it replays the skill's held-out
// sessions the way a fleet serves a session — each turn looks up the
// session's previous program in a dialogue.Store, decodes through a
// serve.Batcher with adaptive escalation to beam dialogueBeam
// (clientConns sessions at once, so windows gather), and stores its answer
// back. Every turn's answer must equal a direct ParseContextAdaptive with
// the same previous program; a mismatch fails the run.
//
// eval.FitCalibration finds no threshold worth escalating at for the
// capped built-in parser (it escalates none of the validation split), so
// the replay sets the threshold between the replayed turns' middle greedy
// confidences (scored with their gold previous programs) instead, so that
// a share of the served turns take the escalation path that
// serve.adaptive_turn_us times.
func replayDialogue(rep *report, st *skillState) {
	v := rep.values
	tp := st.data.Train(genie.TrainOptions{
		Strategy: genie.StrategyGenie, Topt: genie.CanonicalTargets,
		Model: st.recipe.modelConfig(), Seed: recipeSeed, Dialogue: true, DialogueTurns: dialogueTurns,
	})
	p := tp.Parser
	if err := p.SetGrammar(grammar.NewSpec(st.lib.Functions())); err != nil {
		rep.notef("gate: contextual parser for %s: %v", st.name, err)
		rep.correct = false
		return
	}
	convs := sample(dialogue.Synthesize(st.pool, dialogue.Config{
		Seed: recipeSeed, Turns: dialogueTurns, Schemas: st.lib,
		Encode: thingtalk.EncodeOptions{TypeAnnotations: true, Schemas: st.lib},
	}), dialogueSessions)

	// The context head: follow-up turns with their gold previous program,
	// and the same sentences without it.
	var sents, ctxs [][]string
	for _, conv := range convs {
		for _, turn := range conv.Turns[1:] {
			sents, ctxs = append(sents, turn.Words), append(ctxs, turn.Context)
		}
	}
	perTurn := func(fn func()) float64 {
		return ns(perCall(3, 50*time.Millisecond, fn)) / 1e3 / float64(len(sents))
	}
	v["model.ctx_us"] = perTurn(func() {
		for i, s := range sents {
			p.ParseContext(s, ctxs[i])
		}
	})
	v["model.ctx_plain_us"] = perTurn(func() {
		for _, s := range sents {
			p.ParseContext(s, nil)
		}
	})

	var scores []float64
	for _, conv := range convs {
		for _, turn := range conv.Turns {
			_, sc := p.ParseContextScored(turn.Words, turn.Context, 1)
			scores = append(scores, sc)
		}
	}
	p.SetCalibration(model.Calibration{Fitted: true, Threshold: midThreshold(scores)})

	// The session path: store lookup, adaptive batcher decode, store.
	store := dialogue.NewStore(0)
	b := serve.NewBatcher(p, serve.Options{MaxBatch: 8, MaxWait: 2 * time.Millisecond, Beam: dialogueBeam, Adaptive: true})
	type served struct{ words, prior, toks []string }
	out := make([][]served, len(convs))
	var errs []error
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(convs); i += clientConns {
				id := fmt.Sprintf("replay-%d", i)
				for _, turn := range convs[i].Turns {
					prior, _ := store.Get(id, st.name)
					toks, err := b.ParseContextCtx(context.Background(), turn.Words, prior)
					if err != nil {
						mu.Lock()
						errs = append(errs, err)
						mu.Unlock()
						continue
					}
					store.Put(id, st.name, toks)
					out[i] = append(out[i], served{turn.Words, prior, toks})
				}
			}
		}(w)
	}
	wg.Wait()
	el := time.Since(start)
	b.Close()
	bs, ss := b.Stats(), store.Stats()
	v["serve.adaptive_turn_us"] = float64(el.Microseconds()) / float64(max(1, bs.Requests))
	v["dialogue.session_hit_frac"] = ratio(float64(ss.Hits), float64(ss.Hits+ss.Misses))
	ids := make([]string, len(convs))
	for i := range ids {
		ids[i] = fmt.Sprintf("replay-%d", i)
	}
	prog := []string{"now", "=>", "notify"}
	v["dialogue.store_ns"] = ns(perCall(5, 20*time.Millisecond, func() {
		for _, id := range ids {
			store.Get(id, st.name)
			store.Put(id, st.name, prog)
		}
	})) / float64(len(ids))

	turns, bad := len(errs), len(errs)
	for _, err := range errs {
		rep.notef("gate: contextual replay: %v", err)
	}
	for _, conv := range out {
		for _, s := range conv {
			turns++
			direct, _, _ := p.ParseContextAdaptive(s.words, s.prior, dialogueBeam)
			if strings.Join(direct, " ") != strings.Join(s.toks, " ") {
				bad++
				rep.notef("gate: session turn %q served %q, direct decode gives %q",
					strings.Join(s.words, " "), strings.Join(s.toks, " "), strings.Join(direct, " "))
			}
		}
	}
	rep.attempted += turns
	rep.failed += bad
	rep.correct = rep.correct && bad == 0
	rep.notef("contextual replay on %s: %d sessions, %d turns, %d escalated, store hits %d misses %d, %d violations",
		st.name, len(convs), turns, bs.Escalated, ss.Hits, ss.Misses, bad)
}

// midThreshold returns a confidence threshold that splits scores about in
// half, midway between two distinct neighbouring scores, so no score sits
// on it.
func midThreshold(scores []float64) float64 {
	s := append([]float64(nil), scores...)
	sort.Float64s(s)
	for d := 0; d < len(s)/2; d++ {
		for _, k := range []int{len(s)/2 - d, len(s)/2 + d} {
			if k > 0 && k < len(s) && s[k-1] < s[k] {
				return (s[k-1] + s[k]) / 2
			}
		}
	}
	return math.Inf(-1) // all equal: escalate nothing
}

// sample returns up to n items of xs, evenly spaced, in a stable order.
func sample[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, xs[i*len(xs)/n])
	}
	return out
}
