package solver

import (
	"context"
	"reflect"
	"testing"

	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/value"
)

// TestSlicedEdgeCheckNeedsBelow holds the bytecode search, which takes
// the sliced edge check at every node whose f is below its g, equal to
// the interpreter on two descriptions where f ⊑ g fails at a tree node,
// so that comparing only the components an event reaches would admit
// sons the full check prunes.
//
//   - base-fails: f(⊥) = ([0], ⊥) is not below g(⊥) = (⊥, ⊥). An event
//     on b or x reaches no component of f, yet ⊥ has no sons.
//   - non-monotone-g: blink answers its argument at an even length and
//     ⊥ at an odd one, and with no Lower it compiles to a generic call.
//     After (a,1)(a,1)(b,1)(a,1), f = ([1], ⊥) is not below
//     g = (⊥, [1]), so the son by c, which reaches only component 1,
//     must still fail on component 0.
func TestSlicedEdgeCheckNeedsBelow(t *testing.T) {
	blink := fn.SeqFn{Name: "blink", Apply: func(s seq.Seq) seq.Seq {
		if s.Len()%2 == 1 {
			return seq.Empty
		}
		return s
	}}
	one := value.Ints(1)
	for name, p := range map[string]Problem{
		"base-fails": NewProblem(desc.MustNew("base-fails",
			fn.Pair(fn.ConstTraceFn(seq.OfInts(0)), fn.ChanFn("c")),
			fn.Pair(fn.ChanFn("b"), fn.ChanFn("b"))),
			map[string][]value.Value{"b": one, "c": one, "x": one}, 3),
		"non-monotone-g": NewProblem(desc.MustNew("non-monotone-g",
			fn.Pair(fn.ChanFn("b"), fn.ChanFn("c")),
			fn.Pair(fn.ApplySeq(blink, fn.ChanFn("a")), fn.ChanFn("b"))),
			map[string][]value.Value{"a": one, "b": one, "c": one}, 6),
	} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			got, want := Enumerate(ctx, p), Enumerate(ctx, interpreted(p))
			if !got.Stats.CompiledEval || want.Stats.CompiledEval {
				t.Fatalf("CompiledEval %v on bytecode, %v on the interpreter", got.Stats.CompiledEval, want.Stats.CompiledEval)
			}
			if got.Nodes != want.Nodes {
				t.Errorf("%d nodes, the interpreter visits %d", got.Nodes, want.Nodes)
			}
			if g, w := got.SolutionKeys(), want.SolutionKeys(); !reflect.DeepEqual(g, w) {
				t.Errorf("solutions %v, the interpreter finds %v", g, w)
			}
			if g, w := got.Stats.Deterministic(), want.Stats.Deterministic(); !reflect.DeepEqual(g, w) {
				t.Errorf("stats diverged:\n got %+v\nwant %+v", g, w)
			}
		})
	}
}
