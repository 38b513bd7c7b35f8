package check

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/netsim"
	"smoothproc/internal/seq"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// copyConformance is a feeder ⟨1⟩ on "in" plus a copy process, with the
// matching description system.
func copyConformance() Conformance {
	spec := netsim.Spec{Name: "copy", Procs: []netsim.Proc{
		netsim.Feeder("feed", "in", value.Int(1)),
		{Name: "copy", Body: func(c *netsim.Ctx) {
			for {
				v, ok := c.Recv("in")
				if !ok {
					return
				}
				if !c.Send("out", v) {
					return
				}
			}
		}},
	}}
	d := desc.Combine("copy",
		desc.MustNew("feed", fn.ChanFn("in"), fn.ConstTraceFn(seq.OfInts(1))),
		desc.MustNew("copy", fn.ChanFn("out"), fn.ChanFn("in")),
	)
	return Conformance{
		Name: "copy",
		Spec: spec,
		Problem: solver.NewProblem(d, map[string][]value.Value{
			"in": value.Ints(1), "out": value.Ints(1),
		}, 4),
		LenCap:       4,
		MaxDecisions: 10,
	}
}

func TestCheckQuiescentAgrees(t *testing.T) {
	c := copyConformance()
	if err := c.CheckQuiescent(context.Background()); err != nil {
		t.Error(err)
	}
}

func TestCheckHistoriesAgrees(t *testing.T) {
	c := copyConformance()
	if err := c.CheckHistories(context.Background()); err != nil {
		t.Error(err)
	}
}

func TestRandomRunsAreSmooth(t *testing.T) {
	c := copyConformance()
	if err := RandomRunsAreSmooth(context.Background(), c, []int64{1, 2, 3}, netsim.Limits{}); err != nil {
		t.Error(err)
	}
}

func TestSolutionsAreRealizable(t *testing.T) {
	c := copyConformance()
	if err := SolutionsAreRealizable(context.Background(), c); err != nil {
		t.Error(err)
	}
}

func TestCheckQuiescentDetectsMismatch(t *testing.T) {
	c := copyConformance()
	// Sabotage the description: demand the copy doubles its input. The
	// operational side still copies verbatim, so the sets diverge.
	c.Problem.D = desc.Combine("bad",
		desc.MustNew("feed", fn.ChanFn("in"), fn.ConstTraceFn(seq.OfInts(1))),
		desc.MustNew("copy", fn.ChanFn("out"), fn.OnChan(fn.Double, "in")),
	)
	c.Problem.Alphabet["out"] = value.Ints(1, 2)
	err := c.CheckQuiescent(context.Background())
	if err == nil {
		t.Fatal("mismatch not detected")
	}
	if !strings.Contains(err.Error(), "operational but not smooth") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestRandomRunsDetectNonSmoothImplementation(t *testing.T) {
	// Operational process violates its description: sends 9 instead of
	// copying.
	spec := netsim.Spec{Name: "liar", Procs: []netsim.Proc{
		netsim.Feeder("feed", "in", value.Int(1)),
		{Name: "liar", Body: func(c *netsim.Ctx) {
			if _, ok := c.Recv("in"); !ok {
				return
			}
			c.Send("out", value.Int(9))
		}},
	}}
	d := desc.Combine("copy",
		desc.MustNew("feed", fn.ChanFn("in"), fn.ConstTraceFn(seq.OfInts(1))),
		desc.MustNew("copy", fn.ChanFn("out"), fn.ChanFn("in")),
	)
	c := Conformance{
		Name: "liar",
		Spec: spec,
		Problem: solver.NewProblem(d, map[string][]value.Value{
			"in": value.Ints(1), "out": value.Ints(1, 9),
		}, 4),
		LenCap:       4,
		MaxDecisions: 10,
	}
	if err := RandomRunsAreSmooth(context.Background(), c, []int64{1}, netsim.Limits{}); err == nil {
		t.Error("lying implementation not caught")
	}
}

// TestCheckRefines exercises the §8.3 specification reading: a
// deterministic left-biased merge refines the dfm description (all its
// behaviours are admitted) without exhausting it (CheckQuiescent fails).
func TestCheckRefines(t *testing.T) {
	biased := netsim.Spec{Name: "biased", Procs: []netsim.Proc{
		netsim.Feeder("envB", "b", value.Int(0)),
		netsim.Feeder("envC", "c", value.Int(1)),
		{Name: "merge", Body: func(ctx *netsim.Ctx) {
			// Drain b completely before touching c: one fixed merge order.
			if v, ok := ctx.Recv("b"); ok {
				if !ctx.Send("d", v) {
					return
				}
			}
			for {
				v, ok := ctx.Recv("c")
				if !ok {
					return
				}
				if !ctx.Send("d", v) {
					return
				}
			}
		}},
	}}
	d := desc.Combine("dfm-spec",
		desc.MustNew("even", fn.OnChan(fn.Even, "d"), fn.ChanFn("b")),
		desc.MustNew("odd", fn.OnChan(fn.Odd, "d"), fn.ChanFn("c")),
		desc.MustNew("envB", fn.ChanFn("b"), fn.ConstTraceFn(seq.OfInts(0))),
		desc.MustNew("envC", fn.ChanFn("c"), fn.ConstTraceFn(seq.OfInts(1))),
	)
	c := Conformance{
		Name: "biased",
		Spec: biased,
		Problem: solver.NewProblem(d, map[string][]value.Value{
			"b": value.Ints(0), "c": value.Ints(1), "d": value.Ints(0, 1),
		}, 4),
		LenCap:       4,
		MaxDecisions: 16,
	}
	if err := c.CheckRefines(context.Background()); err != nil {
		t.Errorf("biased merge should refine the dfm spec: %v", err)
	}
	if err := c.CheckQuiescent(context.Background()); err == nil {
		t.Error("biased merge should NOT exhaust the dfm spec (it drops merge orders)")
	}

	// A wrong implementation (emits 9) does not refine.
	liar := netsim.Spec{Name: "liar", Procs: []netsim.Proc{
		netsim.Feeder("envB", "b", value.Int(0)),
		netsim.Feeder("envC", "c", value.Int(1)),
		{Name: "merge", Body: func(ctx *netsim.Ctx) {
			ctx.Send("d", value.Int(9))
		}},
	}}
	c2 := c
	c2.Spec = liar
	c2.Problem.Alphabet = map[string][]value.Value{
		"b": value.Ints(0), "c": value.Ints(1), "d": value.Ints(0, 1, 9),
	}
	if err := c2.CheckRefines(context.Background()); err == nil {
		t.Error("lying implementation accepted as refinement")
	}
}

func TestConformanceWithAuxChannels(t *testing.T) {
	// An operational random bit against its auxiliary-free projection:
	// description R(b) ⟵ T̄ has no auxiliaries, but exercise the Visible
	// machinery by projecting onto {b} anyway.
	spec := netsim.Spec{Name: "rb", Procs: []netsim.Proc{{
		Name: "rb",
		Body: func(c *netsim.Ctx) {
			bit, ok := c.Flip()
			if !ok {
				return
			}
			c.Send("b", value.Bool(bit))
		},
	}}}
	d := desc.MustNew("rb", fn.OnChan(fn.RMap, "b"), fn.ConstTraceFn(seq.Of(value.T)))
	c := Conformance{
		Name:         "rb",
		Spec:         spec,
		Problem:      solver.NewProblem(d, map[string][]value.Value{"b": {value.T, value.F}}, 3),
		Visible:      trace.NewChanSet("b"),
		LenCap:       3,
		MaxDecisions: 8,
	}
	if err := c.CheckQuiescent(context.Background()); err != nil {
		t.Error(err)
	}
	if err := RandomRunsAreSmooth(context.Background(), c, []int64{1, 2, 3, 4}, netsim.Limits{}); err != nil {
		t.Error(err)
	}
	if err := SolutionsAreRealizable(context.Background(), c); err != nil {
		t.Error(err)
	}
}

// TestChecksReportCancellation: a check whose denotational search stops
// before its bounds has compared only part of the tree, so it must
// report the stop — wrapping the context's error, or solver.ErrBudget
// when the node budget ran out — never a mismatch or a pass.
func TestChecksReportCancellation(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	checks := map[string]func(context.Context, Conformance) error{
		"quiescent": func(ctx context.Context, c Conformance) error { return c.CheckQuiescent(ctx) },
		"histories": func(ctx context.Context, c Conformance) error { return c.CheckHistories(ctx) },
		"refines":   func(ctx context.Context, c Conformance) error { return c.CheckRefines(ctx) },
		"random-runs": func(ctx context.Context, c Conformance) error {
			return RandomRunsAreSmooth(ctx, c, []int64{1, 2, 3}, netsim.Limits{})
		},
		"realizable": func(ctx context.Context, c Conformance) error { return SolutionsAreRealizable(ctx, c) },
	}
	for name, check := range checks {
		for _, tc := range []struct {
			stop string
			ctx  context.Context
			want error
		}{
			{"canceled", canceled, context.Canceled},
			{"deadline", expired, context.DeadlineExceeded},
		} {
			if err := check(tc.ctx, copyConformance()); !errors.Is(err, tc.want) {
				t.Errorf("%s under a %s context: err = %v, want one wrapping %v", name, tc.stop, err, tc.want)
			}
		}
		if name == "random-runs" {
			continue // searches only for networks with auxiliary channels
		}
		c := copyConformance()
		c.Problem.MaxNodes = 2
		if err := check(context.Background(), c); !errors.Is(err, solver.ErrBudget) {
			t.Errorf("%s with a 2-node budget: err = %v, want one wrapping solver.ErrBudget", name, err)
		}
	}
}
