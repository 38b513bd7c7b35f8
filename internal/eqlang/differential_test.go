package eqlang

import (
	"context"
	"reflect"
	"testing"

	"smoothproc/internal/solver"
)

// maxFuzzFanout skips fuzz-generated programs with huge alphabets: the
// differential property is about evaluation semantics, not about how
// long a 10⁶-wide expansion takes.
const maxFuzzFanout = 64

// solveBudgeted runs a short-budget enumeration of prog with or without
// bytecode evaluation: without, both sides are made opaque, which is
// exactly what a side that does not lower looks like, so the search
// interprets them. The budget keeps hostile fuzz inputs cheap while
// still exercising every opcode the program lowers to.
func solveBudgeted(prog *Program, compiled bool) solver.Result {
	p := prog.Problem()
	p.MaxDepth = min(p.MaxDepth, 3)
	p.MaxNodes = 200
	if !compiled {
		p.D.F.IR, p.D.G.IR = nil, nil
	}
	return solver.Enumerate(context.Background(), p)
}

// diffFingerprint is the observable a compiled and an interpreted search
// must agree on: every solution, every node, every deterministic
// counter.
func diffFingerprint(res solver.Result) (keys []string, nodes int, stats solver.SearchStats) {
	return res.SolutionKeys(), res.Nodes, res.Stats.Deterministic()
}

// FuzzCompiledVsInterpreted holds descvm bytecode evaluation equal to
// the interpreter over arbitrary eqlang programs: any input that
// compiles is solved twice under a short budget — on the interpreter
// (the oracle) and on bytecode — and the results must be byte-identical. Run with
// `go test -fuzz=FuzzCompiledVsInterpreted` for continuous fuzzing; the
// shared corpus runs on every plain `go test` and in the CI
// differential job.
func FuzzCompiledVsInterpreted(f *testing.F) {
	for _, s := range Corpus() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := CompileSource(src)
		if err != nil {
			return
		}
		fanout := 0
		for _, vals := range prog.Alphabet {
			fanout += len(vals)
		}
		if fanout > maxFuzzFanout {
			t.Skip("alphabet too wide for the differential budget")
		}
		interp := solveBudgeted(prog, false)
		if interp.Stats.CompiledEval {
			t.Fatal("interpreter leg ran on bytecode")
		}
		comp := solveBudgeted(prog, true)
		ik, in, is := diffFingerprint(interp)
		ck, cn, cs := diffFingerprint(comp)
		if !reflect.DeepEqual(ik, ck) {
			t.Errorf("solutions diverged:\ninterp %v\ncompiled %v", ik, ck)
		}
		if in != cn {
			t.Errorf("nodes diverged: interp %d, compiled %d", in, cn)
		}
		if !reflect.DeepEqual(is, cs) {
			t.Errorf("stats diverged:\ninterp %+v\ncompiled %+v", is, cs)
		}
	})
}

// TestCorpusLowerable pins the compiler's coverage claim: every corpus
// program the surface language accepts lowers fully to bytecode — no
// eqlang construct falls back to the interpreter. A regression here
// means a new combinator shipped without descvm support.
func TestCorpusLowerable(t *testing.T) {
	lowered := 0
	for _, src := range Corpus() {
		prog, err := CompileSource(src)
		if err != nil {
			continue
		}
		if _, _, ok := prog.Bytecode(); !ok {
			t.Errorf("corpus program not lowerable:\n%s", src)
		}
		lowered++
	}
	if lowered == 0 {
		t.Fatal("corpus contains no compilable programs")
	}
}
