package main

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/eval"
)

// fixedDecoder answers every sentence with one program; it lets a served
// program be scored by eval.Evaluate, the repository's own comparison.
type fixedDecoder []string

func (d fixedDecoder) Parse([]string) []string { return d }

// verdict is the eval comparison of one served program with its gold.
type verdict struct {
	wellFormed bool // parses and typechecks against the skill library
	exact      bool // canonically equal to a gold annotation
}

// gate is the correctness gate over served outcomes: every served program
// must parse and typecheck against its skill's library, and must equal a
// direct Parser.Parse of the same sentence on the snapshot the backends
// serve. A violating outcome is marked, and counts as failed.
type gate struct {
	lg       *loadGen
	verdicts map[string]verdict
	direct   map[string]string

	Checked    int
	Exact      int
	Bad        int
	Violations []string // the first few violations, for the report
}

func newGate(lg *loadGen) *gate {
	return &gate{lg: lg, verdicts: map[string]verdict{}, direct: map[string]string{}}
}

// check judges every answered outcome of a step.
func (g *gate) check(r *stepRun) {
	for i := range r.outcomes {
		o := &r.outcomes[i]
		if !o.ok() {
			continue
		}
		g.Checked++
		st := g.lg.skills[o.skill]
		gold := st.pool[o.item]
		key := fmt.Sprintf("%d/%d", o.skill, o.item)
		served := strings.Join(o.tokens, " ")
		want, ok := g.direct[key]
		if !ok {
			want = strings.Join(st.parser.Parse(gold.Words), " ")
			g.direct[key] = want
		}
		vkey := key + "=" + served
		v, ok := g.verdicts[vkey]
		if !ok {
			rep := eval.Evaluate(fixedDecoder(o.tokens), []dataset.Example{gold}, st.lib)
			v = verdict{wellFormed: rep.SyntaxOK == 1, exact: rep.Correct == 1}
			g.verdicts[vkey] = v
		}
		switch {
		case !v.wellFormed:
			o.badGate = true
			g.violate("%s: served program does not parse and typecheck: %q", st.name, served)
		case served != want:
			o.badGate = true
			g.violate("%s: served %q, direct decode gives %q", st.name, served, want)
		}
		if v.exact {
			g.Exact++
		}
	}
}

func (g *gate) violate(format string, args ...any) {
	g.Bad++
	if len(g.Violations) < 20 {
		g.Violations = append(g.Violations, fmt.Sprintf(format, args...))
	} else if len(g.Violations) == 20 {
		g.Violations = append(g.Violations, "...")
	}
}
