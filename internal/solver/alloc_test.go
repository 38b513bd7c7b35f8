package solver

import (
	"context"
	"testing"

	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/value"
)

// TestPrunedCandidatesAllocateNothing pins the son rule's cost model on
// bytecode: a candidate the edge check f(u·e) ⊑ g(u) rejects is compared
// on VM views and never built, so it allocates nothing. Under
// a ⟵ ⟨⟩ every candidate on a is pruned, both by expand (depth bound 1)
// and by hasSon's probe (depth bound 0), so a search over 64 candidates
// must allocate exactly what one over 2 does.
func TestPrunedCandidatesAllocateNothing(t *testing.T) {
	d := desc.MustNew("silent", fn.ChanFn("a"), fn.ConstTraceFn(seq.Empty))
	allocs := func(size, depth int) float64 {
		msgs := make([]value.Value, size)
		for i := range msgs {
			msgs[i] = value.Int(int64(i))
		}
		p := NewProblem(d, map[string][]value.Value{"a": msgs}, depth)
		res := Enumerate(context.Background(), p)
		if !res.Stats.CompiledEval || res.Stats.SubtreesPruned != size || res.Nodes != 1 {
			t.Fatalf("size %d, depth %d: compiled %v, %d pruned, %d nodes; want bytecode, %d pruned, 1 node",
				size, depth, res.Stats.CompiledEval, res.Stats.SubtreesPruned, res.Nodes, size)
		}
		return testing.AllocsPerRun(20, func() { Enumerate(context.Background(), p) })
	}
	for _, depth := range []int{0, 1} {
		narrow, wide := allocs(2, depth), allocs(64, depth)
		if narrow != wide {
			t.Errorf("depth bound %d: Enumerate allocates %.0f objects over 2 pruned candidates and %.0f over 64, want equal",
				depth, narrow, wide)
		}
	}
}
