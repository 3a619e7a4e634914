package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// toyParser trains one small pointer-generator parser shared by all serving
// tests (training dominates; the tests exercise the serving path).
var toy struct {
	once sync.Once
	p    *model.Parser
}

func toyTrainPairs() []model.Pair {
	values := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
		"golf", "hotel", "india", "juliet"}
	verbs := []struct{ nl, fn string }{
		{"tweet", "@twitter.post"},
		{"email", "@gmail.send"},
	}
	var pairs []model.Pair
	for _, v := range values {
		for _, vb := range verbs {
			pairs = append(pairs, model.Pair{
				Src: []string{vb.nl, v, "now"},
				Tgt: []string{"now", "=>", vb.fn, "param:text", "=", `"`, v, `"`},
			})
		}
	}
	return pairs
}

func toyConfig(seed int64) model.Config {
	return model.Config{
		EmbedDim: 24, HiddenDim: 32, LR: 5e-3, Epochs: 25,
		EvalEvery: 100000, PointerGen: true, MaxDecodeLen: 16,
		MinVocabCount: 4, Seed: seed,
	}
}

func toyParser() *model.Parser {
	toy.once.Do(func() {
		toy.p = model.Train(toyTrainPairs(), nil, nil, toyConfig(1))
	})
	return toy.p
}

func testSentences() [][]string {
	var out [][]string
	for _, p := range toyTrainPairs() {
		out = append(out, p.Src)
	}
	return out
}

func TestBatcherMatchesDirectDecode(t *testing.T) {
	p := toyParser()
	// 5 waves × 20 sentences fire concurrently; raise the admission bound
	// above that so this test exercises decode parity, not load shedding.
	b := NewBatcher(p, Options{MaxBatch: 4, MaxQueue: 200})
	defer b.Close()

	sentences := testSentences()
	want := make([]string, len(sentences))
	for i, s := range sentences {
		want[i] = strings.Join(p.Parse(s), " ")
	}

	var wg sync.WaitGroup
	for rep := 0; rep < 5; rep++ {
		for i := range sentences {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := b.ParseCtx(context.Background(), sentences[i])
				if err != nil {
					t.Errorf("ParseCtx: %v", err)
					return
				}
				if strings.Join(got, " ") != want[i] {
					t.Errorf("batched decode of %v = %q, direct = %q", sentences[i], strings.Join(got, " "), want[i])
				}
			}(i)
		}
	}
	wg.Wait()

	st := b.Stats()
	if st.Requests != int64(5*len(sentences)) {
		t.Errorf("Stats.Requests = %d, want %d", st.Requests, 5*len(sentences))
	}
	if st.Batches <= 0 || st.Batches > st.Requests {
		t.Errorf("implausible batch count: %+v", st)
	}
}

// gate holds decode calls until it opens, so a test can park every worker
// on a decode and build the queue behind them deterministically.
type gate struct {
	// entered gets one token per decode call that reached the gate; its
	// buffer exceeds any test's worker count, so no parked call drops one.
	entered chan struct{}
	open    chan struct{} // closed to release every held call
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 1024), open: make(chan struct{})}
}

// wait parks the calling decode until the gate opens; a nil gate is open.
func (g *gate) wait() {
	if g == nil {
		return
	}
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.open
}

// queueBehind waits until `workers` decode calls are parked at the gate and
// the batcher holds n admitted requests, then opens the gate: each worker
// then takes the queued requests in windows of up to MaxBatch.
func (g *gate) queueBehind(t *testing.T, b *Batcher, workers int, n int64) {
	t.Helper()
	defer close(g.open) // also on failure, so the batcher can drain
	waitFor(t, "every worker to park at the gate", func() bool { return len(g.entered) >= workers })
	waitFor(t, "the queue to fill", func() bool { return b.Stats().QueueDepth >= n })
}

// batchSurface is a parser with the batched decode surface.
type batchSurface interface {
	Parser
	BatchParser
}

// gatedParser routes every decode of the wrapped parser through a gate.
type gatedParser struct {
	*gate
	inner batchSurface
}

func (g gatedParser) Parse(words []string) []string { g.wait(); return g.inner.Parse(words) }
func (g gatedParser) ParseBeam(words []string, width int) []string {
	g.wait()
	return g.inner.ParseBeam(words, width)
}
func (g gatedParser) ParseBatch(sentences [][]string) [][]string {
	g.wait()
	return g.inner.ParseBatch(sentences)
}
func (g gatedParser) ParseBeamBatch(sentences [][]string, width int) [][]string {
	g.wait()
	return g.inner.ParseBeamBatch(sentences, width)
}

// TestBatcherFormsBatches parks both workers on a decode, queues requests
// behind them, and checks that the queued requests left in shared windows
// (fewer batches than requests).
func TestBatcherFormsBatches(t *testing.T) {
	g := gatedParser{gate: newGate(), inner: toyParser()}
	b := NewBatcher(g, Options{MaxBatch: 8, Workers: 2})
	defer b.Close()
	const n = 24
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Parse([]string{"tweet", "alpha", "now"})
		}()
	}
	g.queueBehind(t, b, 2, n)
	wg.Wait()
	st := b.Stats()
	if st.Requests != n {
		t.Fatalf("Requests = %d, want %d", st.Requests, n)
	}
	if st.Batches >= st.Requests {
		t.Errorf("no batching happened: %d batches for %d requests", st.Batches, st.Requests)
	}
}

// recordingBatchParser counts batched-decode calls and the widest window it
// saw, delegating to the real parser.
type recordingBatchParser struct {
	p          *model.Parser
	mu         sync.Mutex
	batchCalls int
	maxWindow  int
}

func (r *recordingBatchParser) Parse(words []string) []string { return r.p.Parse(words) }
func (r *recordingBatchParser) ParseBeam(words []string, width int) []string {
	return r.p.ParseBeam(words, width)
}
func (r *recordingBatchParser) ParseBatch(sentences [][]string) [][]string {
	r.mu.Lock()
	r.batchCalls++
	if len(sentences) > r.maxWindow {
		r.maxWindow = len(sentences)
	}
	r.mu.Unlock()
	return r.p.ParseBatch(sentences)
}
func (r *recordingBatchParser) ParseBeamBatch(sentences [][]string, width int) [][]string {
	r.mu.Lock()
	r.batchCalls++
	if len(sentences) > r.maxWindow {
		r.maxWindow = len(sentences)
	}
	r.mu.Unlock()
	return r.p.ParseBeamBatch(sentences, width)
}

// TestBatcherBatchedDecodeParity queues concurrent traffic behind parked
// workers so real windows form, checks every reply against the sequential
// decode, and asserts the batched decode path actually carried
// multi-request windows. Runs under -race in CI.
func TestBatcherBatchedDecodeParity(t *testing.T) {
	for _, beam := range []int{1, 3} {
		rec := &recordingBatchParser{p: toyParser()}
		g := gatedParser{gate: newGate(), inner: rec}
		b := NewBatcher(g, Options{MaxBatch: 8, Workers: 2, Beam: beam})

		sentences := testSentences()
		want := make([]string, len(sentences))
		for i, s := range sentences {
			if beam > 1 {
				want[i] = strings.Join(rec.p.ParseBeam(s, beam), " ")
			} else {
				want[i] = strings.Join(rec.p.Parse(s), " ")
			}
		}

		var wg sync.WaitGroup
		for rep := 0; rep < 3; rep++ {
			for i := range sentences {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got, err := b.ParseCtx(context.Background(), sentences[i])
					if err != nil {
						t.Errorf("beam=%d ParseCtx: %v", beam, err)
						return
					}
					if strings.Join(got, " ") != want[i] {
						t.Errorf("beam=%d batched decode of %v = %q, sequential = %q",
							beam, sentences[i], strings.Join(got, " "), want[i])
					}
				}(i)
			}
		}
		g.queueBehind(t, b, 2, int64(3*len(sentences)))
		wg.Wait()
		b.Close()

		rec.mu.Lock()
		calls, widest := rec.batchCalls, rec.maxWindow
		rec.mu.Unlock()
		if calls == 0 || widest < 2 {
			t.Errorf("beam=%d: batched decode path unused (calls=%d, widest window=%d)", beam, calls, widest)
		}
	}
}

// plainParser is a Parser without the batched surface, covering the
// Batcher's per-request fallback fan-out.
type plainParser struct{ p *model.Parser }

func (pp plainParser) Parse(words []string) []string { return pp.p.Parse(words) }
func (pp plainParser) ParseBeam(words []string, width int) []string {
	return pp.p.ParseBeam(words, width)
}

// TestBatcherFallbackWithoutBatchParser drives a window through a parser
// that lacks ParseBatch: requests must still fan across the worker pool and
// answer correctly.
func TestBatcherFallbackWithoutBatchParser(t *testing.T) {
	pp := plainParser{p: toyParser()}
	b := NewBatcher(pp, Options{MaxBatch: 8, Workers: 4})
	defer b.Close()
	sentences := testSentences()
	var wg sync.WaitGroup
	for rep := 0; rep < 2; rep++ {
		for i := range sentences {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := b.ParseCtx(context.Background(), sentences[i])
				if err != nil {
					t.Errorf("ParseCtx: %v", err)
					return
				}
				if want := strings.Join(pp.p.Parse(sentences[i]), " "); strings.Join(got, " ") != want {
					t.Errorf("fallback decode of %v = %q, want %q", sentences[i], strings.Join(got, " "), want)
				}
			}(i)
		}
	}
	wg.Wait()
	if st := b.Stats(); st.Requests != int64(2*len(sentences)) {
		t.Errorf("Stats.Requests = %d, want %d", st.Requests, 2*len(sentences))
	}
}

// slowParser blocks each decode until released, so tests can hold requests
// in flight deterministically.
type slowParser struct {
	release chan struct{} // each decode consumes one token
	calls   atomic.Int64
}

func (s *slowParser) decodeOne() []string {
	s.calls.Add(1)
	<-s.release
	return []string{"now", "=>", "notify"}
}

func (s *slowParser) Parse(words []string) []string { return s.decodeOne() }
func (s *slowParser) ParseBeam(words []string, width int) []string {
	return s.decodeOne()
}

// TestBatcherBackpressureSheds fills the admission queue against a blocked
// decoder and checks the overflow request is shed immediately with
// ErrOverloaded — admission must never block behind a full queue —
// and that draining the queue restores admission.
func TestBatcherBackpressureSheds(t *testing.T) {
	sp := &slowParser{release: make(chan struct{})}
	b := NewBatcher(sp, Options{MaxBatch: 1, Workers: 1, MaxQueue: 2})
	defer b.Close()
	defer close(sp.release) // unblock any decode still waiting at teardown

	ctx := context.Background()
	words := []string{"tweet", "alpha", "now"}
	type res struct {
		toks []string
		err  error
	}
	replies := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			toks, err := b.ParseCtx(ctx, words)
			replies <- res{toks, err}
		}()
	}
	// Wait until the queue is fully occupied (2 admitted, 1 decoding).
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().QueueDepth < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v", b.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if _, err := b.ParseCtx(ctx, words); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow request: err = %v, want ErrOverloaded", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("shedding took %s; must be immediate", waited)
	}
	if st := b.Stats(); st.Shed != 1 {
		t.Errorf("Stats.Shed = %d, want 1", st.Shed)
	}

	// Release the held decodes; both admitted requests must be answered.
	sp.release <- struct{}{}
	sp.release <- struct{}{}
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.err != nil {
			t.Fatalf("admitted request errored: %v", r.err)
		}
		if len(r.toks) == 0 {
			t.Fatalf("admitted request got empty reply")
		}
	}
	// Queue drained: admission works again.
	go func() { sp.release <- struct{}{} }()
	if _, err := b.ParseCtx(ctx, words); err != nil {
		t.Fatalf("post-drain request: %v", err)
	}
}

// TestBatcherCloseDrainsAdmitted holds requests in the queue, closes the
// batcher, and checks every admitted request still gets its reply (decoded
// on the old parser) — the drain semantics hot reload relies on.
func TestBatcherCloseDrainsAdmitted(t *testing.T) {
	sp := &slowParser{release: make(chan struct{}, 16)}
	b := NewBatcher(sp, Options{MaxBatch: 2, Workers: 1, MaxQueue: 16})
	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.ParseCtx(context.Background(), []string{"tweet", "alpha", "now"})
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().QueueDepth < n {
		if time.Now().After(deadline) {
			t.Fatalf("requests never queued: %+v", b.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < n; i++ {
		sp.release <- struct{}{}
	}
	b.Close() // must drain all n admitted requests, then stop
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("admitted request %d dropped during Close: %v", i, err)
		}
	}
	if _, err := b.ParseCtx(context.Background(), []string{"x"}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close request: err = %v, want ErrClosed", err)
	}
}

// TestBatcherScoredPath checks ParseScoredCtx returns the parser's own
// scored decode through the batching path.
func TestBatcherScoredPath(t *testing.T) {
	p := toyParser()
	b := NewBatcher(p, Options{MaxBatch: 4})
	defer b.Close()
	words := []string{"tweet", "alpha", "now"}
	wantToks, wantScore := p.ParseScored(words, 1)
	toks, score, err := b.ParseScoredCtx(context.Background(), words)
	if err != nil {
		t.Fatalf("ParseScoredCtx: %v", err)
	}
	if strings.Join(toks, " ") != strings.Join(wantToks, " ") || score != wantScore {
		t.Errorf("scored decode = (%q, %v), direct = (%q, %v)",
			strings.Join(toks, " "), score, strings.Join(wantToks, " "), wantScore)
	}
}

// TestBatcherBatchSizeHistogram drives traffic and checks the dispatch
// histogram accounts for every batch.
func TestBatcherBatchSizeHistogram(t *testing.T) {
	b := NewBatcher(toyParser(), Options{MaxBatch: 8, Workers: 2})
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Parse([]string{"tweet", "alpha", "now"})
		}()
	}
	wg.Wait()
	st := b.Stats()
	var total, weighted int64
	for i, n := range st.BatchSizes {
		total += n
		weighted += int64(i+1) * n
	}
	if total != st.Batches || weighted != st.Requests {
		t.Errorf("histogram inconsistent: %d batches / %d requests vs hist %d / %d (%v)",
			st.Batches, st.Requests, total, weighted, st.BatchSizes)
	}
}

// TestBatcherIdleDispatchesImmediately: a lone request on an idle batcher is
// decoded at once — a free worker never waits for company, whatever the
// ignored MaxWait says.
func TestBatcherIdleDispatchesImmediately(t *testing.T) {
	p := toyParser()
	b := NewBatcher(p, Options{MaxBatch: 8, MaxWait: time.Second, Workers: 2})
	defer b.Close()
	start := time.Now()
	if _, err := b.ParseCtx(context.Background(), []string{"tweet", "alpha", "now"}); err != nil {
		t.Fatalf("ParseCtx: %v", err)
	}
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Errorf("lone request on an idle batcher took %s; want well under MaxWait (1s)", took)
	}
}

func TestBatcherClose(t *testing.T) {
	b := NewBatcher(toyParser(), Options{})
	b.Close()
	if _, err := b.ParseCtx(context.Background(), []string{"tweet", "alpha", "now"}); !errors.Is(err, ErrClosed) {
		t.Errorf("ParseCtx after Close: err = %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

func TestBatcherContextCancel(t *testing.T) {
	b := NewBatcher(toyParser(), Options{})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.ParseCtx(ctx, []string{"tweet", "alpha", "now"}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ParseCtx: err = %v, want context.Canceled", err)
	}
}

func TestServerAndClientEndToEnd(t *testing.T) {
	p := toyParser()
	srv := NewServer(p, Options{MaxBatch: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	ctx := context.Background()
	words := []string{"tweet", "alpha", "now"}
	want := strings.Join(p.Parse(words), " ")

	// Pre-tokenized path.
	got, err := c.ParseWords(ctx, words)
	if err != nil {
		t.Fatalf("ParseWords: %v", err)
	}
	if strings.Join(got, " ") != want {
		t.Errorf("served decode = %q, direct = %q", strings.Join(got, " "), want)
	}

	// Raw-sentence path (server-side tokenization lowercases).
	resp, err := c.ParseSentence(ctx, "Tweet alpha NOW")
	if err != nil {
		t.Fatalf("ParseSentence: %v", err)
	}
	if resp.Program != want {
		t.Errorf("sentence decode = %q, want %q", resp.Program, want)
	}
	if len(resp.Tokens) == 0 {
		t.Error("empty token list for a trained in-distribution sentence")
	}

	// eval.Decoder adapter.
	if gotDec := strings.Join(c.Parse(words), " "); gotDec != want {
		t.Errorf("Client.Parse = %q, want %q", gotDec, want)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if !h.OK || h.Requests < 3 {
		t.Errorf("unexpected health: %+v", h)
	}
}

// TestServerSheds429 drives the HTTP front end into admission-control
// shedding and checks the 429 + Retry-After contract, plus the Client's
// ErrOverloaded mapping.
func TestServerSheds429(t *testing.T) {
	sp := &slowParser{release: make(chan struct{}, 4)}
	srv := NewServer(sp, Options{MaxBatch: 1, Workers: 1, MaxQueue: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	defer close(sp.release)

	// Occupy the single queue slot with a blocked request.
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Batcher().ParseCtx(context.Background(), []string{"tweet", "alpha", "now"})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Batcher().Stats().QueueDepth < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never occupied")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/parse", "application/json",
		bytes.NewReader([]byte(`{"sentence":"tweet alpha now"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overloaded POST /parse status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 reply missing Retry-After")
	}

	// The Client surfaces the shed as ErrOverloaded.
	c := NewClient(ts.URL)
	if _, err := c.ParseSentence(context.Background(), "tweet alpha now"); !errors.Is(err, ErrOverloaded) {
		t.Errorf("client error = %v, want ErrOverloaded", err)
	}

	sp.release <- struct{}{}
	<-done
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv := NewServer(toyParser(), Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	if _, err := c.ParseSentence(context.Background(), "   "); err == nil {
		t.Error("empty sentence should be rejected")
	}
	resp, err := ts.Client().Get(ts.URL + "/parse")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET /parse status = %d, want 405", resp.StatusCode)
	}
}
