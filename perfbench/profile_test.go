package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestAttribute(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/nn.rowMatMulInto", "repro/internal/model.(*Parser).step"}, "nn"},
		{[]string{"runtime.memmove", "repro/internal/grammar.(*Automaton).Legal"}, "grammar"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/model.(*Parser).Parse"}, "gc"},
		{[]string{"syscall.Syscall", "net/http.(*persistConn).writeLoop"}, "nethttp_json"},
		{[]string{"encoding/json.Marshal", "main.(*loadGen).send"}, "loadgen"},
		{[]string{"repro/internal/dialogue.(*Store).Get", "repro/internal/fleet.(*Registry).ParseSession"}, "fleet"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

//go:noinline
func burnCPU(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// TestProfileDecode profiles a busy loop and checks the decoder finds it.
func TestProfileDecode(t *testing.T) {
	p := startProfile()
	if p == nil {
		t.Skip("a CPU profile is already running")
	}
	burnCPU(300 * time.Millisecond)
	d, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	shares, burn := d.layerShares(), d.share(leafIn("burnCPU"))
	if all := d.share(frameIn("TestProfileDecode")); all < burn {
		t.Errorf("frames under the test %.2f < the busy loop's leaf share %.2f", all, burn)
	}
	if burn < 0.5 {
		t.Errorf("busy loop share %.2f, want most of the profile (shares %v)", burn, shares)
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v", total)
	}
	if _, _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

// TestBenchmarkJSONMatchesCommand: BENCHMARK.json names exactly the metrics
// and workloads this command reports, with the same units and directions.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"single-turn", "build-train"}; !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, the command runs %v", names, want)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
