package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// clientConns is the load generator's connection limit: one per CPU of the
// 2-core reference box, so the generator cannot out-compete the server for
// cores. A request that waits for a free connection waits on the clock.
const clientConns = 2

// requestTimeout bounds one request; a request that exceeds it fails.
const requestTimeout = 10 * time.Second

// arrival is one scheduled request. Item indexes the skill's held-out pool.
type arrival struct {
	At    time.Duration
	Skill int
	Item  int
}

// stepPlan is one ladder step's fixed schedule.
type stepPlan struct {
	Index    int
	Rate     float64 // offered requests per second
	Dur      time.Duration
	Arrivals []arrival
}

// deckSize is the number of arrivals over which the skill mix is exact.
const deckSize = 10

// planner draws every step's schedule from the workload seed, one step at
// a time in the order the steps run. Skills are dealt from a seed-shuffled
// deck of deckSize slots — hotFrac of them for skill 0, the rest shared
// among the others — so the mix is exact over every ten arrivals; within a
// skill, items follow a seed-shuffled cyclic order that continues across
// steps. Every held-out item is thus requested about equally often, and the
// served mix — and with it exact_match — barely depends on the seed.
type planner struct {
	seed   int64
	deck   []int // skill per slot, reshuffled each time it is used up
	dealt  int
	perms  [][]int
	cursor []int
	steps  int
	rng    *rand.Rand // deck shuffles
}

func newPlanner(seed int64, hotFrac float64, poolSizes []int) *planner {
	rng := rand.New(rand.NewSource(seed))
	pl := &planner{seed: seed, rng: rng,
		perms: make([][]int, len(poolSizes)), cursor: make([]int, len(poolSizes))}
	for i, n := range poolSizes {
		pl.perms[i] = rng.Perm(n)
	}
	hot := deckSize
	if len(poolSizes) > 1 {
		hot = int(math.Round(hotFrac * deckSize))
	}
	for i := 0; i < deckSize; i++ {
		sk := 0
		if i >= hot {
			sk = 1 + (i-hot)%(len(poolSizes)-1)
		}
		pl.deck = append(pl.deck, sk)
	}
	pl.dealt = len(pl.deck)
	return pl
}

// nextSkill deals the next skill from the deck.
func (pl *planner) nextSkill() int {
	if pl.dealt == len(pl.deck) {
		pl.rng.Shuffle(len(pl.deck), func(i, j int) { pl.deck[i], pl.deck[j] = pl.deck[j], pl.deck[i] })
		pl.dealt = 0
	}
	pl.dealt++
	return pl.deck[pl.dealt-1]
}

// step plans the next step at rate requests per second for dur.
func (pl *planner) step(rate float64, dur time.Duration) stepPlan {
	i := pl.steps
	pl.steps++
	at := poissonArrivals(rand.New(rand.NewSource(stepSeed(pl.seed, i))), rate, dur)
	p := stepPlan{Index: i, Rate: rate, Dur: dur, Arrivals: make([]arrival, len(at))}
	for j, t := range at {
		sk := pl.nextSkill()
		perm := pl.perms[sk]
		p.Arrivals[j] = arrival{At: t, Skill: sk, Item: perm[pl.cursor[sk]%len(perm)]}
		pl.cursor[sk]++
	}
	return p
}

// outcome is one answered (or failed) request.
type outcome struct {
	id      uint64
	skill   int
	item    int
	latMS   float64 // from when the request was due to when it was answered
	status  int     // HTTP status; 0 when the request never got one
	tokens  []string
	err     error
	badGate bool // set by the correctness gate
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// stepRun is one executed step.
type stepRun struct {
	plan       stepPlan
	outcomes   []outcome
	backlogMid int
	backlogEnd int
	lateMS     []float64 // generator lateness per arrival
}

// loadGen drives a cluster's gateway open-loop.
type loadGen struct {
	c      *cluster
	skills []*skillState
	client *http.Client
	seed   int64
	nextID atomic.Uint64
}

func newLoadGen(c *cluster, seed int64) *loadGen {
	lg := &loadGen{c: c, seed: seed}
	for _, n := range c.skillNames() {
		lg.skills = append(lg.skills, c.skill(n))
	}
	lg.client = &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     clientConns,
			MaxIdleConnsPerHost: clientConns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
	return lg
}

// poolSizes is the request-pool size per skill, in skill order.
func (lg *loadGen) poolSizes() []int {
	out := make([]int, len(lg.skills))
	for i, s := range lg.skills {
		out[i] = len(s.pool)
	}
	return out
}

// close releases the client's idle connections.
func (lg *loadGen) close() { lg.client.CloseIdleConnections() }

// run executes one step: a scheduler goroutine (this one) sleeps until
// each arrival is due and starts it, then waits for every request of the
// step, including those answered after the schedule's end.
func (lg *loadGen) run(p stepPlan) stepRun {
	r := stepRun{plan: p, lateMS: make([]float64, 0, len(p.Arrivals))}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		inflight atomic.Int64 // due but not yet answered
	)
	record := func(o outcome) {
		mu.Lock()
		r.outcomes = append(r.outcomes, o)
		mu.Unlock()
	}
	epoch := time.Now()
	midDone := false
	for _, a := range p.Arrivals {
		if !midDone && a.At >= p.Dur/2 {
			sleepUntil(epoch.Add(p.Dur / 2))
			r.backlogMid, midDone = int(inflight.Load()), true
		}
		due := epoch.Add(a.At)
		sleepUntil(due)
		r.lateMS = append(r.lateMS, msSince(due))
		wg.Add(1)
		inflight.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			ex := &lg.skills[a.Skill].pool[a.Item]
			o := lg.send(a.Skill, ex.Words, "", due)
			o.item = a.Item
			record(o)
		}()
	}
	if !midDone {
		sleepUntil(epoch.Add(p.Dur / 2))
		r.backlogMid = int(inflight.Load())
	}
	sleepUntil(epoch.Add(p.Dur))
	r.backlogEnd = int(inflight.Load())
	wg.Wait()
	return r
}

// runSessions sends n sessions of turns held-out hot-skill sentences
// through the gateway, clientConns sessions at a time. Every turn carries
// the session's X-Genie-Session id and is sent when the previous turn's
// reply arrives; the sentences follow a seed-shuffled order of the pool. It
// returns each session's outcomes in turn order.
func (lg *loadGen) runSessions(n, turns int) [][]outcome {
	pool := lg.skills[0].pool
	perm := rand.New(rand.NewSource(lg.seed)).Perm(len(pool))
	out := make([][]outcome, n)
	var wg sync.WaitGroup
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += clientConns {
				session := fmt.Sprintf("s%d-%d", lg.seed, i)
				for t := 0; t < turns; t++ {
					item := perm[(i*turns+t)%len(perm)]
					o := lg.send(0, pool[item].Words, session, time.Now())
					o.item = item
					out[i] = append(out[i], o)
				}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// send posts one /parse request through the gateway and times it from due.
func (lg *loadGen) send(skill int, words []string, session string, due time.Time) outcome {
	o := outcome{id: lg.nextID.Add(1), skill: skill}
	body, err := json.Marshal(serve.ParseRequest{Skill: lg.skills[skill].name, Words: words})
	if err != nil {
		o.err = err
		return o
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, lg.c.gwURL+"/parse", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestIDHeader, strconv.FormatUint(o.id, 10))
	if session != "" {
		req.Header.Set(serve.SessionHeader, session)
	}
	resp, err := lg.client.Do(req)
	if err != nil {
		o.err, o.latMS = err, msSince(due)
		return o
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	data, err := io.ReadAll(resp.Body)
	o.latMS = msSince(due)
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode == http.StatusOK {
		var pr serve.ParseResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			o.err = err
			return o
		}
		o.tokens = pr.Tokens
	}
	return o
}

// summary condenses a step for the knee rule.
func (r *stepRun) summary() stepResult {
	s := stepResult{Rate: r.plan.Rate, Attempts: len(r.outcomes), BacklogMid: r.backlogMid, BacklogEnd: r.backlogEnd}
	lat := make([]float64, 0, len(r.outcomes))
	for i := range r.outcomes {
		o := &r.outcomes[i]
		// A failed request misses any latency limit: it enters the
		// latency distribution at the request timeout as well as the
		// failure count.
		if !o.ok() || o.badGate {
			s.Failed++
			lat = append(lat, float64(requestTimeout.Milliseconds()))
			continue
		}
		lat = append(lat, o.latMS)
	}
	s.Lat = summarize(lat)
	return s
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
