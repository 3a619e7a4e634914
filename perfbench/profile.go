package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// This file attributes CPU-profile samples to the repository's layers. A
// sample is charged to the innermost stack frame that belongs to a layer,
// so runtime helpers (memmove, mallocgc, ...) count toward the layer that
// called them; samples taken inside the garbage collector's own workers or
// assists count as "gc", and samples on the load generator's request path
// count as "loadgen" (its HTTP client shares net/http with the servers).

// layerOf maps a function name to its layer, "" for none.
func layerOf(fn string) string {
	for _, l := range layerPrefixes {
		for _, p := range l.prefixes {
			if strings.HasPrefix(fn, p) {
				return l.name
			}
		}
	}
	return ""
}

var layerPrefixes = []struct {
	name     string
	prefixes []string
}{
	{"nn", []string{"repro/internal/nn."}},
	{"model", []string{"repro/internal/model."}},
	{"grammar", []string{"repro/internal/grammar."}},
	{"serve", []string{"repro/internal/serve."}},
	{"fleet", []string{"repro/internal/fleet.", "repro/internal/dialogue."}},
	{"gateway", []string{"repro/internal/gateway."}},
	{"pipeline", []string{"repro/internal/synthesis.", "repro/internal/paraphrase.", "repro/internal/augment.",
		"repro/internal/genie.", "repro/internal/nltemplate.", "repro/internal/params.", "repro/internal/dataset.",
		"repro/internal/evaldata.", "repro/internal/ifttt."}},
	{"thingtalk", []string{"repro/internal/thingtalk.", "repro/internal/thingpedia.", "repro/internal/eval."}},
	{"nethttp_json", []string{"net/http.", "net.", "encoding/json.", "bufio.", "internal/poll.", "syscall.",
		"net/textproto.", "io.", "strconv."}},
}

// gcFrames mark a sample taken in the collector rather than the mutator.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain"}

// shareLayers are the layers reported as cpu_share.<layer>, every one of
// them present (possibly 0) in every traced run.
var shareLayers = []string{"nn", "model", "grammar", "serve", "fleet", "gateway", "nethttp_json", "gc", "pipeline", "thingtalk", "loadgen", "other"}

// attribute returns the layer one stack (leaf first) is charged to.
func attribute(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "gc"
			}
		}
		if strings.HasPrefix(fn, "main.(*loadGen)") {
			return "loadgen"
		}
	}
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "other"
}

// profile is a running CPU profile.
type profile struct{ buf bytes.Buffer }

// startProfile starts the process CPU profile; nil if one is already on.
func startProfile() *profile {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil
	}
	return p
}

// stop ends the profile and decodes it.
func (p *profile) stop() (*profileData, error) {
	pprof.StopCPUProfile()
	stacks, weights, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	d := &profileData{stacks: stacks, weights: weights}
	for _, w := range weights {
		d.total += w
	}
	return d, nil
}

// profileData is a decoded CPU profile: one stack (leaf first) and CPU time
// per sample.
type profileData struct {
	stacks  [][]string
	weights []float64
	total   float64
}

// layerShares is the CPU-time share of each layer.
func (d *profileData) layerShares() map[string]float64 {
	shares := map[string]float64{}
	for i, st := range d.stacks {
		shares[attribute(st)] += d.weights[i]
	}
	for k := range shares {
		shares[k] = ratio(shares[k], d.total)
	}
	return shares
}

// share is the CPU-time share of the samples whose stack matches.
func (d *profileData) share(match func(stack []string) bool) float64 {
	var w float64
	for i, st := range d.stacks {
		if len(st) > 0 && match(st) {
			w += d.weights[i]
		}
	}
	return ratio(w, d.total)
}

// leafIn matches a stack whose leaf function name contains any of subs.
func leafIn(subs ...string) func([]string) bool {
	return func(st []string) bool { return containsAny(st[0], subs) }
}

// frameIn matches a stack with any frame whose name contains any of subs.
func frameIn(subs ...string) func([]string) bool {
	return func(st []string) bool {
		for _, fn := range st {
			if containsAny(fn, subs) {
				return true
			}
		}
		return false
	}
}

func containsAny(s string, subs []string) bool {
	for _, x := range subs {
		if strings.Contains(s, x) {
			return true
		}
	}
	return false
}

// decodeProfile reads a gzipped profile.proto CPU profile into its stacks
// (function names, leaf first, inlined frames expanded) and the CPU time of
// each sample (its last value).
func decodeProfile(data []byte) (stacks [][]string, weights []float64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var st []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					st = append(st, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, float64(s.vals[len(s.vals)-1]))
	}
	return stacks, weights, nil
}

// appendVarints appends a repeated varint field's values, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("perfbench: malformed profile")

// eachField walks a protobuf message's fields: varint fields pass their
// value, length-delimited ones their bytes; fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(num, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
