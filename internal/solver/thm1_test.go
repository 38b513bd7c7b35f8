package solver

import (
	"context"
	"testing"

	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/value"
)

// bufferProblem is Kahn's unbounded buffer e ⟵ a: supp(f) = {e} and
// supp(g) = {a} are disjoint, so Theorem 1's hypothesis holds and every
// input event (channel a) is auto-admitted by the fast path.
func bufferProblem(depth int) Problem {
	d := desc.MustNew("buffer", fn.ChanFn("e"), fn.ChanFn("a"))
	return NewProblem(d, map[string][]value.Value{
		"a": value.Ints(0, 1),
		"e": value.Ints(0, 1),
	}, depth)
}

func TestNewProblemSetsThm1(t *testing.T) {
	if p := bufferProblem(3); !p.Thm1 {
		t.Error("independent description did not enable Thm1")
	}
	if p := dfmProblem(3); p.Thm1 {
		t.Error("dependent description enabled Thm1")
	}
}

// TestThm1FastPathEquivalence pins the fast path's soundness argument
// operationally: the admitted tree — and with it every result field —
// is identical with the shortcut on and off; only the work differs.
func TestThm1FastPathEquivalence(t *testing.T) {
	ctx := context.Background()
	fast := bufferProblem(4)
	slow := fast
	slow.Thm1 = false

	rf := Enumerate(ctx, fast)
	rs := Enumerate(ctx, slow)

	if !rf.Stats.Thm1FastPath {
		t.Fatal("fast run did not take the Theorem 1 path")
	}
	if rs.Stats.Thm1FastPath || rs.Stats.Thm1AutoEdges != 0 {
		t.Fatalf("slow run took the fast path: %+v", rs.Stats)
	}
	if rf.Stats.Thm1AutoEdges == 0 {
		t.Fatal("fast run admitted no edges via Theorem 1")
	}
	if err := rf.Stats.CheckInvariants(rf.Truncated); err != nil {
		t.Fatalf("fast-path stats unbalanced: %v", err)
	}

	// Identical trees: same nodes in the same BFS order, same classes.
	for name, pair := range map[string][2]int{
		"solutions": {len(rf.Solutions), len(rs.Solutions)},
		"frontier":  {len(rf.Frontier), len(rs.Frontier)},
		"dead":      {len(rf.DeadLeaves), len(rs.DeadLeaves)},
		"nodes":     {rf.Nodes, rs.Nodes},
		"edges":     {rf.Stats.EdgesChecked, rs.Stats.EdgesChecked},
		"kept":      {rf.Stats.EdgesKept, rs.Stats.EdgesKept},
		"pruned":    {rf.Stats.SubtreesPruned, rs.Stats.SubtreesPruned},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s differ: fast %d, slow %d", name, pair[0], pair[1])
		}
	}
	for i := range rf.Visited {
		if !rf.Visited[i].Equal(rs.Visited[i]) {
			t.Fatalf("visit order diverges at %d: %s vs %s", i, rf.Visited[i], rs.Visited[i])
		}
	}

	// The point of the shortcut: strictly fewer side applications.
	if rf.Stats.Eval.CacheMisses() >= rs.Stats.Eval.CacheMisses() {
		t.Errorf("fast path did not save evaluations: fast %d misses, slow %d",
			rf.Stats.Eval.CacheMisses(), rs.Stats.Eval.CacheMisses())
	}
}

// TestThm1ParallelMatches checks that searches running at once each
// report the lone search's fast-path accounting.
func TestThm1ParallelMatches(t *testing.T) {
	ctx := context.Background()
	p := bufferProblem(4)
	seq := Enumerate(ctx, p)
	for i, par := range expectConcurrentMatch(t, p, 4) {
		if !par.Stats.Thm1FastPath {
			t.Errorf("search %d did not take the Theorem 1 path", i)
		}
		if par.Stats.Thm1AutoEdges != seq.Stats.Thm1AutoEdges {
			t.Errorf("search %d: auto edges %d, lone search %d", i, par.Stats.Thm1AutoEdges, seq.Stats.Thm1AutoEdges)
		}
	}
}

// TestThm1OmegaIneligible: an ω-approximation left side declares an
// empty support but grows with raw trace length, so f(u·e) = f(u) fails
// and auto-admit would be unsound — NewProblem must not enable the fast
// path, and a caller forcing it is overruled by the search.
func TestThm1OmegaIneligible(t *testing.T) {
	d := desc.MustNew("omega-lhs",
		fn.OmegaConstFn("trues", seq.Of(value.T)),
		fn.ChanFn("b"))
	if !d.Independent() {
		t.Fatal("setup: sides should be independent")
	}
	if d.Thm1Eligible() {
		t.Fatal("ω left side reported Thm1-eligible")
	}
	p := NewProblem(d, map[string][]value.Value{"b": {value.T}}, 3)
	if p.Thm1 {
		t.Error("NewProblem enabled Thm1 for an ω left side")
	}
	p.Thm1 = true // hostile caller
	res := Enumerate(context.Background(), p)
	if res.Stats.Thm1FastPath || res.Stats.Thm1AutoEdges != 0 {
		t.Errorf("search took the fast path on an ω left side: %+v", res.Stats)
	}
}

// TestThm1BaseFailure: an independent description whose induction base
// f(⊥) ⊑ g(⊥) fails must fall back to the full edge check (and the root
// then has no sons at all, so nothing is lost).
func TestThm1BaseFailure(t *testing.T) {
	d := desc.MustNew("owe", fn.ConstTraceFn(seq.OfInts(0)), fn.ChanFn("b"))
	p := NewProblem(d, map[string][]value.Value{"b": value.Ints(0)}, 3)
	if !p.Thm1 {
		t.Fatal("independent description did not request Thm1")
	}
	res := Enumerate(context.Background(), p)
	if res.Stats.Thm1FastPath {
		t.Error("fast path active despite failed induction base")
	}
	if res.Nodes != 1 || len(res.DeadLeaves) != 1 {
		t.Errorf("root should be a lone dead leaf, got %d nodes, %d dead", res.Nodes, len(res.DeadLeaves))
	}
}

// The ablation benchmark: the Theorem 1 shortcut versus the full edge
// check on the same independent system (delta recorded in DESIGN.md).
func benchmarkBuffer(b *testing.B, thm1 bool) {
	p := bufferProblem(5)
	p.Thm1 = thm1
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := Enumerate(ctx, p)
		if len(res.Solutions) == 0 {
			b.Fatal("no solutions")
		}
	}
}

func BenchmarkThm1FastPath(b *testing.B) { benchmarkBuffer(b, true) }
func BenchmarkThm1Off(b *testing.B)      { benchmarkBuffer(b, false) }
