package solver

import (
	"context"
	"errors"
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
	if len(res.Solutions) == 0 {
		t.Fatal("no solutions found")
	}
	for _, s := range res.Solutions {
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
	for _, s := range res.Solutions {
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
	if len(res.Solutions) != 2 {
		t.Fatalf("random bit has %d solutions, want 2: %v", len(res.Solutions), res.SolutionKeys())
	}
	for _, s := range res.Solutions {
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
	if len(res.Solutions) != 0 {
		t.Errorf("ticks has finite solutions: %v", res.SolutionKeys())
	}
	if len(res.Frontier) != 1 {
		t.Fatalf("frontier size %d, want 1", len(res.Frontier))
	}
	wantFrontier := trace.CycleGen("t", trace.Of(trace.E("b", value.T))).Prefix(5)
	if !res.Frontier[0].Equal(wantFrontier) {
		t.Errorf("frontier %s, want %s", res.Frontier[0], wantFrontier)
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
	if len(res.Solutions) != 0 {
		t.Errorf("solutions: %v", res.SolutionKeys())
	}
	if len(res.DeadLeaves) != 1 || !res.DeadLeaves[0].Equal(trace.Of(ev("b", 0))) {
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

// TestPruningAblation (experiment E21) compares the pruned and unpruned
// searches: identical solution sets, with the unpruned tree visiting far
// more nodes.
func TestPruningAblation(t *testing.T) {
	pruned := dfmProblem(4)
	unpruned := dfmProblem(4)
	unpruned.Prune = false
	rp, ru := Enumerate(context.Background(), pruned), Enumerate(context.Background(), unpruned)
	pk, uk := rp.SolutionKeys(), ru.SolutionKeys()
	if len(pk) != len(uk) {
		t.Fatalf("pruned %d vs unpruned %d solutions", len(pk), len(uk))
	}
	for i := range pk {
		if pk[i] != uk[i] {
			t.Errorf("solution sets differ at %d: %s vs %s", i, pk[i], uk[i])
		}
	}
	if ru.Nodes <= rp.Nodes {
		t.Errorf("pruning should shrink the tree: pruned %d, unpruned %d", rp.Nodes, ru.Nodes)
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
	if !p.Prune {
		t.Error("NewProblem should default to pruning")
	}
}

// TestTheorem4Degeneration checks the Section 3.3 remark that the tree
// for id ⟵ h degenerates to Kleene's chain: for the deterministic
// description b ⟵ ⟨7 8⟩ the visited nodes form a single path.
func TestTheorem4Degeneration(t *testing.T) {
	d := desc.MustNew("det", fn.ChanFn("b"), fn.ConstTraceFn(seq.OfInts(7, 8)))
	p := NewProblem(d, map[string][]value.Value{"b": value.Ints(0, 7, 8, 9)}, 4)
	res := Enumerate(context.Background(), p)
	if len(res.Solutions) != 1 {
		t.Fatalf("%d solutions, want 1", len(res.Solutions))
	}
	if !res.Solutions[0].Channel("b").Equal(seq.OfInts(7, 8)) {
		t.Errorf("solution %s", res.Solutions[0])
	}
	if res.Nodes != 3 {
		t.Errorf("visited %d nodes, want the 3-node chain ⊥ → ⟨7⟩ → ⟨7 8⟩", res.Nodes)
	}
	// Visited nodes are exactly the Kleene iterates.
	for i, n := range res.Visited {
		if n.Len() != i {
			t.Errorf("node %d has length %d", i, n.Len())
		}
	}
}

// TestCollectVisitedOptOut checks that turning CollectVisited off drops
// only the Visited list — every other field of the result, including
// the deterministic counters, is unchanged.
func TestCollectVisitedOptOut(t *testing.T) {
	ctx := context.Background()
	on := dfmProblem(4)
	off := dfmProblem(4)
	off.CollectVisited = false
	resOn, resOff := Enumerate(ctx, on), Enumerate(ctx, off)
	if len(resOff.Visited) != 0 {
		t.Fatalf("opt-out still collected %d visited nodes", len(resOff.Visited))
	}
	if len(resOn.Visited) != resOn.Nodes || resOn.Nodes == 0 {
		t.Fatalf("default should collect all %d nodes, got %d", resOn.Nodes, len(resOn.Visited))
	}
	if resOff.Nodes != resOn.Nodes || resOff.Stats.Visited != resOn.Stats.Visited ||
		resOff.Stats.EdgesChecked != resOn.Stats.EdgesChecked ||
		resOff.Stats.EdgesKept != resOn.Stats.EdgesKept {
		t.Error("counters changed under opt-out")
	}
	kOn, kOff := resOn.SolutionKeys(), resOff.SolutionKeys()
	if len(kOn) != len(kOff) {
		t.Fatal("solutions changed under opt-out")
	}
	for i := range kOn {
		if kOn[i] != kOff[i] {
			t.Errorf("solution %d differs: %s vs %s", i, kOn[i], kOff[i])
		}
	}
}
