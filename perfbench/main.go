// Command perfbench is the repository's benchmark: one command that runs a
// workload against the real system and prints every metric by name with its
// unit, ending with one JSON result line.
//
//	go build -o perfbench . && ./perfbench -workload single-turn -seed 1 -seconds 28 -trace 0
//
// (run.sh does this from the repository root.) single-turn drives
// loopback HTTP POST /parse open-loop through an in-process gateway in front
// of two in-process fleet backends; build-train runs the offline data
// pipeline and training. With -trace 0 the result carries the end-to-end
// metrics; with -trace 1, the per-layer ones, timed from outside each layer.
// See README.md for every metric and what it should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// processStart is when the process began running Go code: the origin of
// the first set-up's time.
var processStart = time.Now()

// metricDef names one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms.low", "ms", "lower"},
	{"p50_ms.high", "ms", "lower"},
	{"knee_rps", "1/s", "higher"},
	{"ok_frac", "frac", "higher"},
	{"exact_match", "frac", "higher"},
	{"synth_ex_per_s", "1/s", "higher"},
	{"train_ex_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports, on every workload; a layer
// a workload does not use reports 0 (the HTTP hops, the grammar mask and
// the contextual replay on build-train).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"nn.affine_ns.b1", "ns", "lower"},
		{"nn.affine_bytes.b1", "B", "lower"},
		{"nn.affine_ns.b8", "ns", "lower"},
		{"nn.affine_bytes.b8", "B", "lower"},
		{"nn.lstm_step_ns.b8", "ns", "lower"},
		{"nn.lstm_step_bytes.b8", "B", "lower"},
		{"nn.attend_ns.b8", "ns", "lower"},
		{"nn.attend_bytes.b8", "B", "lower"},
		{"model.greedy_us", "us", "lower"},
		{"model.greedy_unmasked_us", "us", "lower"},
		{"model.batch_us", "us", "lower"},
		{"model.batch_fill", "count", "higher"},
		{"model.batch8_us", "us", "lower"},
		{"model.beam4_us", "us", "lower"},
		{"model.beam4_batch8_us", "us", "lower"},
		{"model.ctx_us", "us", "lower"},
		{"model.ctx_plain_us", "us", "lower"},
		{"model.out_tokens_mean", "count", "lower"},
		{"model.allocs_per_parse", "count", "lower"},
		{"model.greedy_nn_share", "frac", "lower"},
		{"model.greedy_matmul_share", "frac", "lower"},
		{"model.greedy_encoder_share", "frac", "lower"},
		{"model.mix_scorer_share", "frac", "lower"},
		{"grammar.legal_ns", "ns", "lower"},
		{"grammar.legal_cached_ns", "ns", "lower"},
		{"grammar.memo_hit_frac", "frac", "higher"},
		{"grammar.legal_calls", "count", "lower"},
		{"serve.batch_fill_mean", "count", "higher"},
		{"serve.batch_fill_mean.low", "count", "higher"},
		{"serve.batches", "count", "lower"},
		{"serve.queue_depth_max", "count", "lower"},
		{"serve.adaptive_turn_us", "us", "lower"},
		{"fleet.handler_p50_ms", "ms", "lower"},
		{"fleet.handler_p99_ms", "ms", "lower"},
		{"gateway.overhead_p50_ms", "ms", "lower"},
		{"gateway.overhead_p99_ms", "ms", "lower"},
		{"gateway.attempts_per_req", "count", "lower"},
		{"gateway.backend_share_max", "frac", "lower"},
		{"gateway.sticky_frac", "frac", "higher"},
		{"dialogue.session_hit_frac", "frac", "higher"},
		{"dialogue.store_ns", "ns", "lower"},
		{"train.step_ms", "ms", "lower"},
		{"train.allocs_per_step", "count", "lower"},
		{"synth.synthesize_s", "s", "lower"},
		{"synth.paraphrase_s", "s", "lower"},
		{"synth.augment_s", "s", "lower"},
		{"loadgen.sent", "count", "higher"},
		{"loadgen.ok", "count", "higher"},
		{"loadgen.failed", "count", "lower"},
		{"loadgen.shed", "count", "lower"},
		{"loadgen.lag_p99_ms", "ms", "lower"},
		{"loadgen.p99_ms.low", "ms", "lower"},
		{"loadgen.p99_ms.high", "ms", "lower"},
		{"trace.overhead_p50_ms", "ms", "lower"},
	}
	for _, l := range shareLayers {
		defs = append(defs, metricDef{"cpu_share." + l, "frac", "lower"})
	}
	return defs
}()

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string // scratch space for set-ups, inside the checkout
}

// report is what a workload run produces: values keyed by metric name, the
// request counts, and human-readable detail lines printed before the
// result.
type report struct {
	values    metrics
	attempted int
	failed    int
	correct   bool
	notes     []string
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run()) }

// run executes one workload and prints its report; it returns the exit
// code: 0 for a correct run, 1 for a failed gate or an error (no result
// line), 2 for bad flags.
func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: single-turn or build-train")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 28, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	o.workDir = filepath.Join(".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(o.workDir)

	var (
		rep *report
		err error
	)
	switch {
	case o.workload == "build-train":
		rep, err = runBuildTrain(o)
	case o.workload == "single-turn":
		rep, err = runServing(o)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err == nil {
		defs := endToEnd
		if o.trace {
			defs = perLayer
		}
		err = printReport(os.Stdout, rep, defs)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed")
		return 1
	}
	return 0
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printReport prints the detail lines, one line per metric, and the JSON
// result line. Every metric in defs must be present and finite.
func printReport(f *os.File, rep *report, defs []metricDef) error {
	w := bufio.NewWriter(f)
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	res := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := rep.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
