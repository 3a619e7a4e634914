package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestMetricsDelta: counters scraped before and after a step, summed over
// skills and backends, subtract into the step's activity, and the derived
// fill comes from the deltas, not the cumulative totals.
func TestMetricsDelta(t *testing.T) {
	before := countersOf(serve.MetricsResponse{Skills: []serve.SkillMetrics{
		{Name: "a", Requests: 10, Batches: 8, BatchSizes: []int64{6, 2}},
		{Name: "b", Requests: 4, Batches: 4, BatchSizes: []int64{4}},
	}})
	after := countersOf(serve.MetricsResponse{Skills: []serve.SkillMetrics{
		{Name: "a", Requests: 30, Batches: 16, BatchSizes: []int64{8, 4, 0, 2}},
		{Name: "b", Requests: 10, Batches: 8, BatchSizes: []int64{6, 1}},
	}})
	d := after.sub(before)
	if d.Batches != 12 {
		t.Fatalf("delta batches %d", d.Batches)
	}
	// Histogram delta: a grew [2,2,0,2], b grew [2,1]; total [4,3,0,2].
	wantHist := []int64{4, 3, 0, 2}
	for i, v := range wantHist {
		if d.Hist[i] != v {
			t.Fatalf("histogram delta %v, want %v", d.Hist, wantHist)
		}
	}
	// Fill: (4*1 + 3*2 + 2*4) / 9 batches = 18/9.
	if got := d.fillMean(); !near(got, 2) {
		t.Errorf("fill mean %v, want 2", got)
	}
	// Two backends add.
	two := d.add(d)
	if two.Batches != 24 || two.Hist[3] != 4 || !near(two.fillMean(), 2) {
		t.Errorf("sum of two backends: %+v", two)
	}
	var zero fleetCounters
	if zero.fillMean() != 0 {
		t.Error("idle counters should give zero fill")
	}
	if len(before.Hist) != 2 || before.Hist[0] != 10 {
		t.Errorf("sub must not modify its operands: before.Hist = %v", before.Hist)
	}
}

// TestTracerJoinsHops: the gateway wrapper's context id reaches the fleet
// wrapper through the transport wrapper, and hop stats join by id.
func TestTracerJoinsHops(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	fleetSrv := httptest.NewServer(tr.wrapFleet(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})))
	defer fleetSrv.Close()
	client := &http.Client{Transport: tr.wrapTransport(http.DefaultTransport)}
	gw := httptest.NewServer(tr.wrapGateway(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodPost, fleetSrv.URL+"/parse", nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})))
	defer gw.Close()
	for id := 1; id <= 3; id++ {
		req, _ := http.NewRequest(http.MethodPost, gw.URL+"/parse", nil)
		req.Header.Set(requestIDHeader, []string{"", "1", "2", "3"}[id])
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	outs := []outcome{{id: 1, status: 200, latMS: 100}, {id: 2, status: 200, latMS: 100}, {id: 3, status: 200, latMS: 100}}
	hs := tr.hops(outs, []*stepRun{{outcomes: outs}})
	if hs.handler.N != 3 || hs.attempts != 1 || hs.shareMax != 1 {
		t.Fatalf("hops %+v", hs)
	}
	if hs.overhead.P50 <= 0 || hs.overhead.P50 >= 100 {
		t.Errorf("overhead %v should be client latency minus handler time", hs.overhead.P50)
	}
	// Both follow-ups of the first session reached the previous turn's
	// backend; the second session's first turn (id 9) was never sent.
	if got := tr.followFrac([][]outcome{outs, {{id: 9}, {id: 1}}}); !near(got, 2.0/3) {
		t.Errorf("follow fraction %v, want 2/3", got)
	}
	var nilTracer *tracer
	h := http.NotFoundHandler()
	if nilTracer.wrapFleet(h) == nil || nilTracer.wrapTransport(http.DefaultTransport) != http.DefaultTransport {
		t.Error("a nil tracer must install no wrappers")
	}
}
