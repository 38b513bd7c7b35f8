package procs_test

import (
	"context"
	"testing"

	"smoothproc/internal/check"
	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/netsim"
	"smoothproc/internal/procs"
	"smoothproc/internal/seq"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// TestMaybeTickConformance pins Section 3.1.1's example 2: the quiescent
// traces are exactly ε and (b,0), matched via the auxiliary-channel
// description of Section 8.2.
func TestMaybeTickConformance(t *testing.T) {
	e := procs.MaybeTick("mt", "b")
	c := check.Conformance{
		Name: "maybetick",
		Spec: netsim.Spec{Name: "mt", Procs: []netsim.Proc{e.Proc}},
		Problem: solver.NewProblem(e.Comp.D, map[string][]value.Value{
			"mt.c": {value.T, value.F},
			"b":    value.Ints(0),
		}, 3),
		Visible:      e.Visible(),
		LenCap:       3,
		MaxDecisions: 6,
	}
	if err := c.CheckQuiescent(context.Background()); err != nil {
		t.Error(err)
	}
	den, err := c.DenotationalSolutions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(den) != 2 {
		t.Fatalf("projected solutions: %d, want 2 (ε and (b,0))", len(den))
	}
	if _, ok := den[trace.Empty.String()]; !ok {
		t.Error("ε missing")
	}
	if _, ok := den[trace.Of(trace.E("b", value.Int(0))).String()]; !ok {
		t.Error("(b,0) missing")
	}
	if err := check.SolutionsAreRealizable(context.Background(), c); err != nil {
		t.Error(err)
	}
}

// TestMaybeTickNeedsAuxiliary mechanises the Section 8.2 necessity
// argument on a family of candidate aux-free descriptions: for every
// description f ⟵ g over channel b alone (drawn from the repository's
// vocabulary closure), if ε and (b,0) are both smooth solutions then
// (b,0)(b,0) is a tree node — so no member of the family carves out
// exactly the process's histories.
func TestMaybeTickNeedsAuxiliary(t *testing.T) {
	// A broad sample of width-1 trace functions over b.
	fns := []fn.TraceFn{
		fn.ChanFn("b"),
		fn.OnChan(fn.Even, "b"),
		fn.OnChan(fn.Identity, "b"),
		fn.OnChan(fn.PrependFn(value.Int(0)), "b"),
		fn.OnChan(fn.MulAdd(2, 1), "b"),
		fn.OnChan(fn.CountTs, "b"),
		fn.ConstTraceFn(seq.Empty),
		fn.ConstTraceFn(seq.OfInts(0)),
		fn.ConstTraceFn(seq.OfInts(0, 0)),
		fn.OmegaConstFn("zeros", seq.OfInts(0)),
	}
	empty := trace.Empty
	one := trace.Of(trace.E("b", value.Int(0)))
	two := one.Append(trace.E("b", value.Int(0)))
	for i, f := range fns {
		for j, g := range fns {
			d, err := desc.New("cand", f, g)
			if err != nil {
				continue
			}
			if d.IsSmoothFinite(empty) != nil || d.IsSmoothFinite(one) != nil {
				continue // does not admit both required traces
			}
			if !solver.IsTreeNode(d, two) {
				t.Errorf("candidate f=%d g=%d describes {ε,(b,0)} exactly — the §8.2 argument would be refuted", i, j)
			}
		}
	}
}
