package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// requestIDHeader carries the load generator's request id. The gateway does
// not forward it; the tracer's gateway wrapper moves it into the request
// context, which the gateway's backend attempts inherit, and the transport
// wrapper puts it back on each attempt for the fleet wrapper to read.
const requestIDHeader = "X-Bench-Request"

type requestIDKey struct{}

// tracer times calls into the gateway and fleet from outside: an
// http.Handler wrapper around each fleet server, and a wrapper around the
// gateway's backend transport. It records nothing while off, so the low
// rung can be run with and without it to measure its overhead. A nil
// tracer installs no wrappers at all (the untraced run).
type tracer struct {
	on atomic.Bool

	mu       sync.Mutex
	handler  map[uint64]float64 // request id -> fleet /parse handler ms, last attempt
	attempts map[uint64]int     // request id -> backend /parse attempts
	host     map[uint64]string  // request id -> backend host, last attempt
	byHost   map[string]int64   // backend host -> /parse attempts
}

func newTracer() *tracer {
	t := &tracer{}
	t.reset()
	return t
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.handler = map[uint64]float64{}
	t.attempts = map[uint64]int{}
	t.host = map[uint64]string{}
	t.byHost = map[string]int64{}
	t.mu.Unlock()
}

// wrapGateway moves the request id header into the request context.
func (t *tracer) wrapGateway(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t.on.Load() {
			if id, err := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64); err == nil {
				r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
			}
		}
		h.ServeHTTP(w, r)
	})
}

// wrapTransport counts the gateway's /parse attempts per request and per
// backend, records which backend each request's last attempt went to, and
// stamps the request id onto each attempt.
func (t *tracer) wrapTransport(base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if t.on.Load() && r.URL.Path == "/parse" {
			if id, ok := r.Context().Value(requestIDKey{}).(uint64); ok {
				r = r.Clone(r.Context())
				r.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
				t.mu.Lock()
				t.attempts[id]++
				t.host[id] = r.URL.Host
				t.byHost[r.URL.Host]++
				t.mu.Unlock()
			}
		}
		return base.RoundTrip(r)
	})
}

// wrapFleet times the fleet server's /parse handler per request id.
func (t *tracer) wrapFleet(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != "/parse" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		ms := msSince(start)
		if id, err := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64); err == nil {
			t.mu.Lock()
			t.handler[id] = ms
			t.mu.Unlock()
		}
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// hopStats is what the wrappers saw.
type hopStats struct {
	handler  timing  // fleet /parse handler time
	overhead timing  // client latency minus fleet handler time
	attempts float64 // backend attempts per client request
	shareMax float64 // largest share of attempts one backend took
}

// hops joins the wrappers' records with client outcomes by request id: the
// handler and overhead timings over path (the low rung, where nothing
// queues), the attempt counts over every rung of runs.
func (t *tracer) hops(path []outcome, runs []*stepRun) hopStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var hs, ov []float64
	for i := range path {
		o := &path[i]
		if h, ok := t.handler[o.id]; ok && o.ok() {
			hs = append(hs, h)
			ov = append(ov, o.latMS-h)
		}
	}
	var att, reqs int
	for _, r := range runs {
		for i := range r.outcomes {
			att += t.attempts[r.outcomes[i].id]
			reqs++
		}
	}
	var total, top int64
	for _, n := range t.byHost {
		total += n
		top = max(top, n)
	}
	return hopStats{
		handler:  summarize(hs),
		overhead: summarize(ov),
		attempts: ratio(float64(att), float64(reqs)),
		shareMax: ratio(float64(top), float64(total)),
	}
}

// followFrac is the share of session follow-up turns the gateway sent to
// the backend that served the session's previous turn.
func (t *tracer) followFrac(sessions [][]outcome) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var follow, n int
	for _, s := range sessions {
		for i := 1; i < len(s); i++ {
			n++
			if h := t.host[s[i].id]; h != "" && h == t.host[s[i-1].id] {
				follow++
			}
		}
	}
	return ratio(float64(follow), float64(n))
}

// fleetCounters are the cumulative counters of a fleet's GET /metrics,
// summed over skills (and over backends by add).
type fleetCounters struct {
	Batches    int64
	Hist       []int64 // batch-size histogram, index = size-1
	QueueDepth int64   // instantaneous, summed
}

// countersOf sums one /metrics reply over its skills.
func countersOf(m serve.MetricsResponse) fleetCounters {
	var c fleetCounters
	for _, s := range m.Skills {
		c.Batches += s.Batches
		c.QueueDepth += s.QueueDepth
		c.Hist = addHist(c.Hist, s.BatchSizes, 1)
	}
	return c
}

// add returns c + o.
func (c fleetCounters) add(o fleetCounters) fleetCounters { return c.combine(o, 1) }

// sub returns c - o: the activity between two scrapes.
func (c fleetCounters) sub(o fleetCounters) fleetCounters { return c.combine(o, -1) }

func (c fleetCounters) combine(o fleetCounters, sign int64) fleetCounters {
	return fleetCounters{
		Batches:    c.Batches + sign*o.Batches,
		Hist:       addHist(append([]int64(nil), c.Hist...), o.Hist, sign),
		QueueDepth: c.QueueDepth + sign*o.QueueDepth,
	}
}

// addHist adds sign*b into a elementwise, growing a as needed.
func addHist(a, b []int64, sign int64) []int64 {
	for len(a) < len(b) {
		a = append(a, 0)
	}
	for i, v := range b {
		a[i] += sign * v
	}
	return a
}

// fillMean is the mean decode batch size: requests per batch by the
// histogram (index i counts batches of i+1 requests).
func (c fleetCounters) fillMean() float64 {
	var n, sum int64
	for i, v := range c.Hist {
		n += v
		sum += int64(i+1) * v
	}
	return ratio(float64(sum), float64(n))
}

// scrape reads every backend's /metrics and sums them.
func scrape(client *http.Client, backends []string) (fleetCounters, error) {
	var total fleetCounters
	for _, b := range backends {
		var m serve.MetricsResponse
		if err := getJSON(client, b+"/metrics", &m); err != nil {
			return total, err
		}
		total = total.add(countersOf(m))
	}
	return total, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// depthSampler polls the backends' queue depth while a step runs and keeps
// the largest total it saw.
type depthSampler struct {
	max  atomic.Int64
	stop chan struct{}
	done chan struct{}
}

func startDepthSampler(client *http.Client, backends []string, every time.Duration) *depthSampler {
	d := &depthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-tick.C:
			}
			if c, err := scrape(client, backends); err == nil && c.QueueDepth > d.max.Load() {
				d.max.Store(c.QueueDepth)
			}
		}
	}()
	return d
}

// finish stops the sampler, waits for it, and returns the maximum depth.
func (d *depthSampler) finish() int64 {
	close(d.stop)
	<-d.done
	return d.max.Load()
}
