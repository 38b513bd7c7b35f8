package solver

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

func ev(ch string, n int64) trace.Event { return trace.E(ch, value.Int(n)) }

// dfmProblem builds the Figure 2 network (dfm with constant feeds b=⟨0⟩,
// c=⟨1⟩) as a solver problem.
func dfmProblem(depth int) Problem {
	d := desc.Combine("dfm-net",
		desc.MustNew("even", fn.OnChan(fn.Even, "d"), fn.ChanFn("b")),
		desc.MustNew("odd", fn.OnChan(fn.Odd, "d"), fn.ChanFn("c")),
		desc.MustNew("feedB", fn.ChanFn("b"), fn.ConstTraceFn(seq.OfInts(0))),
		desc.MustNew("feedC", fn.ChanFn("c"), fn.ConstTraceFn(seq.OfInts(1))),
	)
	return NewProblem(d, map[string][]value.Value{
		"b": value.Ints(0),
		"c": value.Ints(1),
		"d": value.Ints(0, 1),
	}, depth)
}

func TestEnumerateDFM(t *testing.T) {
	res := Enumerate(context.Background(), dfmProblem(4))
	// The complete merges: b, c and both d orders, in all interleavings
	// consistent with causality. Exactly the traces with b=⟨0⟩, c=⟨1⟩,
	// d a permutation of {0,1}, with each d-event after its input.
	if res.Solutions.Len() == 0 {
		t.Fatal("no solutions found")
	}
	for _, s := range res.Solutions.Traces() {
		if !s.Channel("b").Equal(seq.OfInts(0)) || !s.Channel("c").Equal(seq.OfInts(1)) {
			t.Errorf("solution %s has wrong inputs", s)
		}
		dHist := s.Channel("d")
		if dHist.Len() != 2 || !dHist.Contains(value.Int(0)) || !dHist.Contains(value.Int(1)) {
			t.Errorf("solution %s does not merge completely", s)
		}
	}
	// Both merge orders are present.
	orders := map[string]bool{}
	for _, s := range res.Solutions.Traces() {
		orders[s.Channel("d").String()] = true
	}
	if len(orders) != 2 {
		t.Errorf("merge orders found: %v, want both", orders)
	}
	// A specific known solution.
	want := trace.Of(ev("b", 0), ev("d", 0), ev("c", 1), ev("d", 1))
	if !res.Contains(want) {
		t.Errorf("expected solution %s missing; got %v", want, res.SolutionKeys())
	}
	// ⊥ is not a solution here (feeders owe output).
	if res.Contains(trace.Empty) {
		t.Error("⊥ accepted despite owed feeder output")
	}
}

func TestEnumerateRandomBit(t *testing.T) {
	// Section 4.3: R(b) ⟵ T̄. Smooth solutions: exactly (b,T) and (b,F).
	d := desc.MustNew("rb", fn.OnChan(fn.RMap, "b"), fn.ConstTraceFn(seq.Of(value.T)))
	p := NewProblem(d, map[string][]value.Value{"b": {value.T, value.F}}, 3)
	res := Enumerate(context.Background(), p)
	if res.Solutions.Len() != 2 {
		t.Fatalf("random bit has %d solutions, want 2: %v", res.Solutions.Len(), res.SolutionKeys())
	}
	for _, s := range res.Solutions.Traces() {
		if s.Len() != 1 {
			t.Errorf("solution %s should be a single output", s)
		}
	}
	// All length-2+ nodes were pruned: the tree is tiny.
	if res.Nodes != 3 {
		t.Errorf("visited %d nodes, want 3 (⊥, (b,T), (b,F))", res.Nodes)
	}
}

func TestEnumerateTicksFrontier(t *testing.T) {
	// Section 4.2: b ⟵ T; b — no finite solutions; a single growing path.
	d := desc.MustNew("ticks", fn.ChanFn("b"), fn.OnChan(fn.PrependFn(value.T), "b"))
	p := NewProblem(d, map[string][]value.Value{"b": {value.T, value.F}}, 5)
	res := Enumerate(context.Background(), p)
	if res.Solutions.Len() != 0 {
		t.Errorf("ticks has finite solutions: %v", res.SolutionKeys())
	}
	if res.Frontier.Len() != 1 {
		t.Fatalf("frontier size %d, want 1", res.Frontier.Len())
	}
	wantFrontier := trace.CycleGen("t", trace.Of(trace.E("b", value.T))).Prefix(5)
	if !res.Frontier.At(0).Equal(wantFrontier) {
		t.Errorf("frontier %s, want %s", res.Frontier.At(0), wantFrontier)
	}
	if res.Nodes != 6 {
		t.Errorf("visited %d nodes, want 6 (the single path)", res.Nodes)
	}
}

func TestDeadLeaves(t *testing.T) {
	// b ⟵ ⟨0 2⟩ over alphabet {0} only: after (b,0) the only extension
	// (b,0)(b,0) is pruned (f would be ⟨0 0⟩ ⋢ ⟨0 2⟩), and (b,0) fails
	// the limit condition — a dead leaf (quiescent per the tree but not
	// a solution; 2 is outside the alphabet).
	d := desc.MustNew("lead", fn.ChanFn("b"), fn.ConstTraceFn(seq.OfInts(0, 2)))
	p := NewProblem(d, map[string][]value.Value{"b": value.Ints(0)}, 4)
	res := Enumerate(context.Background(), p)
	if res.Solutions.Len() != 0 {
		t.Errorf("solutions: %v", res.SolutionKeys())
	}
	if res.DeadLeaves.Len() != 1 || !res.DeadLeaves.At(0).Equal(trace.Of(ev("b", 0))) {
		t.Errorf("dead leaves: %v", res.DeadLeaves)
	}
}

func TestMaxNodesTruncates(t *testing.T) {
	p := dfmProblem(6)
	p.MaxNodes = 3
	res := Enumerate(context.Background(), p)
	if !res.Truncated {
		t.Error("expected truncation")
	}
	if res.Nodes != 4 { // budget+1 observed then stop
		t.Errorf("nodes = %d", res.Nodes)
	}
}

// eachTrace calls visit on every trace over p's alphabet up to
// p.MaxDepth: the §3.3 tree with no edge filter.
func eachTrace(p Problem, visit func(trace.Trace)) {
	var walk func(u trace.Trace)
	walk = func(u trace.Trace) {
		visit(u)
		if u.Len() == p.MaxDepth {
			return
		}
		for _, c := range p.Channels {
			for _, m := range p.Alphabet[c] {
				walk(u.Append(trace.E(c, m)))
			}
		}
	}
	walk(trace.Empty)
}

// TestPruningAblation (experiment E21) compares the pruned search with
// the unpruned tree — every trace up to the depth bound, a solution
// where §3.2's definition (IsSmoothFinite) holds: identical solution
// sets, with the unpruned tree far larger.
func TestPruningAblation(t *testing.T) {
	p := dfmProblem(4)
	rp := Enumerate(context.Background(), p)
	var traces int
	var uk []string
	eachTrace(p, func(tr trace.Trace) {
		traces++
		if p.D.IsSmoothFinite(tr) == nil {
			uk = append(uk, tr.String())
		}
	})
	sort.Strings(uk)
	if pk := rp.SolutionKeys(); !reflect.DeepEqual(pk, uk) {
		t.Errorf("solution sets differ: pruned %v, unpruned %v", pk, uk)
	}
	if traces <= rp.Nodes {
		t.Errorf("pruning should shrink the tree: pruned %d, unpruned %d", rp.Nodes, traces)
	}
}

func TestIsTreeNode(t *testing.T) {
	d := dfmProblem(4).D
	if !IsTreeNode(d, trace.Of(ev("b", 0))) {
		t.Error("(b,0) is a valid history")
	}
	if IsTreeNode(d, trace.Of(ev("d", 0))) {
		t.Error("uncaused output accepted as history")
	}
	if !IsTreeNode(d, trace.Empty) {
		t.Error("⊥ must always be a node")
	}
}

func TestCheckInduction(t *testing.T) {
	p := dfmProblem(4)
	// Invariant: d never carries more items than b and c supplied.
	phi := func(tr trace.Trace) bool {
		return tr.Channel("d").Len() <= tr.Channel("b").Len()+tr.Channel("c").Len()
	}
	if err := CheckInduction(context.Background(), p, phi); err != nil {
		t.Errorf("valid invariant rejected: %v", err)
	}
	// A property that fails at the base.
	if err := CheckInduction(context.Background(), p, func(tr trace.Trace) bool { return tr.Len() > 0 }); err == nil {
		t.Error("false base accepted")
	}
	// A property broken by some edge.
	broken := func(tr trace.Trace) bool { return tr.Channel("d").IsEmpty() }
	if err := CheckInduction(context.Background(), p, broken); err == nil {
		t.Error("broken inductive step accepted")
	}
}

func TestCheckInductionBudget(t *testing.T) {
	p := dfmProblem(6)
	p.MaxNodes = 2
	err := CheckInduction(context.Background(), p, func(trace.Trace) bool { return true })
	if !errors.Is(err, ErrBudget) {
		t.Errorf("expected ErrBudget, got %v", err)
	}
}

func TestNewProblemSortsChannels(t *testing.T) {
	p := NewProblem(dfmProblem(2).D, map[string][]value.Value{
		"z": nil, "a": nil, "m": nil,
	}, 2)
	if p.Channels[0] != "a" || p.Channels[1] != "m" || p.Channels[2] != "z" {
		t.Errorf("channels not sorted: %v", p.Channels)
	}
}

// TestTheorem4Degeneration checks the Section 3.3 remark that the tree
// for id ⟵ h degenerates to Kleene's chain: for the deterministic
// description b ⟵ ⟨7 8⟩ the tree is a single path.
func TestTheorem4Degeneration(t *testing.T) {
	d := desc.MustNew("det", fn.ChanFn("b"), fn.ConstTraceFn(seq.OfInts(7, 8)))
	p := NewProblem(d, map[string][]value.Value{"b": value.Ints(0, 7, 8, 9)}, 4)
	res := Enumerate(context.Background(), p)
	if res.Solutions.Len() != 1 {
		t.Fatalf("%d solutions, want 1", res.Solutions.Len())
	}
	if !res.Solutions.At(0).Channel("b").Equal(seq.OfInts(7, 8)) {
		t.Errorf("solution %s", res.Solutions.At(0))
	}
	if res.Nodes != 3 {
		t.Errorf("visited %d nodes, want the 3-node chain ⊥ → ⟨7⟩ → ⟨7 8⟩", res.Nodes)
	}
	// At most one node per level: the nodes are exactly the Kleene
	// iterates.
	for _, l := range res.Stats.Levels {
		if l.Nodes > 1 {
			t.Errorf("level %d holds %d nodes, want at most 1", l.Depth, l.Nodes)
		}
	}
}
