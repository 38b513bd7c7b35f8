// Package experiments implements the per-artefact reproduction runs
// indexed in DESIGN.md (E1-E21, plus the extensions E22-E23): every
// figure, worked example and theorem instance of the paper, each returning a report row pairing the paper's
// claim with the measured outcome. cmd/repro prints the table;
// EXPERIMENTS.md records it; the package test asserts every row passes.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"smoothproc/internal/check"
	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/histrel"
	"smoothproc/internal/kahn"
	"smoothproc/internal/netsim"
	"smoothproc/internal/procs"
	"smoothproc/internal/report"
	"smoothproc/internal/seq"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// Experiment is one reproducible artefact.
type Experiment struct {
	ID       string
	Artefact string
	Claim    string
	// Run performs the measurement; it returns a summary of what was
	// observed, or an error if the observation contradicts the claim.
	// The context bounds every search and simulation the measurement
	// performs.
	Run func(ctx context.Context) (string, error)
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		e1(), e2(), e3(), e4(), e5(), e6(), e7(), e8(), e9(), e10(),
		e11(), e12(), e13(), e14(), e15(), e16(), e17(), e18(), e19(),
		e20(), e21(), e22(), e23(),
	}
}

// RunAll executes every experiment into a report table.
func RunAll(ctx context.Context) *report.Table {
	var tab report.Table
	for _, e := range All() {
		measured, err := e.Run(ctx)
		tab.AddResult(e.ID, e.Artefact, e.Claim, measured, err)
	}
	return &tab
}

func e1() Experiment {
	return Experiment{
		ID:       "E1",
		Artefact: "Fig 1 / §2.1",
		Claim:    "copy loop lfp is ε; seeded variant grows to 0^ω; operational runs agree",
		Run: func(ctx context.Context) (string, error) {
			fix, err := kahn.TwoCopyEquations().Solve(10, 0)
			if err != nil {
				return "", err
			}
			if !fix.Converged || !fix.Env["b"].IsEmpty() || !fix.Env["c"].IsEmpty() {
				return "", fmt.Errorf("lfp = %v", fix.Env)
			}
			seeded, err := kahn.SeededCopyEquations().Solve(100, 12)
			if err != nil {
				return "", err
			}
			want := seq.Repeat(seq.OfInts(0), 12)
			if !seeded.Env["b"].Equal(want) {
				return "", fmt.Errorf("seeded approximation %s", seeded.Env["b"])
			}
			// Operational: unseeded quiesces at ⊥; seeded follows
			// ((b,0)(c,0))^ω.
			q := netsim.QuiescentTraces(procs.Fig1Network(), 10, netsim.RealizeOpts{})
			if len(q) != 1 {
				return "", fmt.Errorf("%d quiescent traces, want 1", len(q))
			}
			run := netsim.Run(procs.Fig1SeededNetwork(), netsim.NewRandomDecider(1), netsim.Limits{MaxEvents: 12})
			loop := trace.CycleGen("loop", trace.Of(trace.E("b", value.Int(0)), trace.E("c", value.Int(0))))
			if !run.Trace.Equal(loop.Prefix(12)) {
				return "", fmt.Errorf("seeded run %s", run.Trace)
			}
			d := desc.Combine("fig1s",
				procs.SeededCopy("copy2", "c", "b").Comp.D,
				procs.Copy("copy1", "b", "c").Comp.D,
			)
			if v := d.CheckOmega(loop, 24); !v.OmegaSolution() {
				return "", fmt.Errorf("0^ω not certified: %+v", v)
			}
			return "lfp ε; seeded 0^ω certified to depth 24; runs replay it exactly", nil
		},
	}
}

func fig2Conformance() check.Conformance {
	net := procs.WithFeeders("fig2", procs.DFM("dfm", "b", "c", "d"),
		procs.ConstFeeder("envB", "b", value.Int(0), value.Int(2)),
		procs.ConstFeeder("envC", "c", value.Int(1)),
	)
	d, err := net.Description()
	if err != nil {
		panic(err) // statically impossible: catalogue components satisfy dc
	}
	return check.Conformance{
		Name: "fig2",
		Spec: net.Spec,
		Problem: solver.NewProblem(d, map[string][]value.Value{
			"b": value.Ints(0, 2), "c": value.Ints(1), "d": value.Ints(0, 1, 2),
		}, 6),
		LenCap:       6,
		MaxDecisions: 24,
	}
}

func e2() Experiment {
	return Experiment{
		ID:       "E2",
		Artefact: "Fig 2 / §2.2",
		Claim:    "dfm: smooth solutions = quiescent traces, both directions",
		Run: func(ctx context.Context) (string, error) {
			c := fig2Conformance()
			if err := c.CheckQuiescent(ctx); err != nil {
				return "", err
			}
			if err := c.CheckHistories(ctx); err != nil {
				return "", err
			}
			if err := check.SolutionsAreRealizable(ctx, c); err != nil {
				return "", err
			}
			den, err := c.DenotationalSolutions(ctx)
			if err != nil {
				return "", err
			}
			n := len(den)
			return fmt.Sprintf("%d quiescent traces = %d smooth solutions; all realizable", n, n), nil
		},
	}
}

func e3() Experiment {
	return Experiment{
		ID:       "E3",
		Artefact: "Fig 3 / §2.3",
		Claim:    "x, y are smooth solutions; z solves the equations but fails smoothness at −1",
		Run: func(ctx context.Context) (string, error) {
			d := procs.Fig3Equations()
			const depth = 30
			for _, g := range []trace.Gen{procs.Fig3X(), procs.Fig3Y()} {
				if v := d.CheckOmega(g, depth); !v.OmegaSolution() {
					return "", fmt.Errorf("%s rejected: %+v", g.Name, v)
				}
			}
			vz := d.CheckOmega(procs.Fig3Z(), depth)
			if vz.LimitRefuted || !vz.Converging {
				return "", fmt.Errorf("z is not a solution in the limit: %+v", vz)
			}
			if vz.Smooth || vz.SmoothFailAt != 0 {
				return "", fmt.Errorf("z smoothness verdict wrong: %+v", vz)
			}
			return "x, y certified to depth 30; z converges but violates smoothness at element 0", nil
		},
	}
}

func e4() Experiment {
	return Experiment{
		ID:       "E4",
		Artefact: "§2.3 properties",
		Claim:    "safety (2n preceded by n) by §8.4 induction; progress (every n appears) on x and y",
		Run: func(ctx context.Context) (string, error) {
			phi := func(tr trace.Trace) bool {
				d := tr.Channel("d")
				for i := 0; i < d.Len(); i++ {
					m, ok := d.At(i).AsInt()
					if !ok || m <= 0 || m%2 != 0 {
						continue
					}
					if !d.Take(i).Contains(value.Int(m / 2)) {
						return false
					}
				}
				return true
			}
			p := solver.NewProblem(procs.Fig3Equations(), map[string][]value.Value{
				"d": value.IntRange(-2, 7),
			}, 6)
			if err := solver.CheckInduction(ctx, p, phi); err != nil {
				return "", err
			}
			for _, g := range []trace.Gen{procs.Fig3X(), procs.Fig3Y()} {
				hist := g.Prefix(31).Channel("d")
				for n := int64(0); n < 8; n++ {
					if !hist.Contains(value.Int(n)) {
						return "", fmt.Errorf("%s misses %d", g.Name, n)
					}
				}
			}
			return "induction discharged over the depth-6 tree; 0..7 all appear in x and y", nil
		},
	}
}

func e5() Experiment {
	return Experiment{
		ID:       "E5",
		Artefact: "Fig 4 / §2.4",
		Claim:    "Brock-Ackermann: two solutions {012, 021}; only 021 smooth; only 021 computed",
		Run: func(ctx context.Context) (string, error) {
			d := procs.Fig4Equations()
			solutions, smooth := 0, 0
			perms := [][]int64{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
			for _, perm := range perms {
				tr := trace.Empty
				for _, n := range perm {
					tr = tr.Append(trace.E("c", value.Int(n)))
				}
				if d.LimitOK(tr) {
					solutions++
					if d.IsSmoothFinite(tr) == nil {
						smooth++
					}
				}
			}
			if solutions != 2 || smooth != 1 {
				return "", fmt.Errorf("solutions=%d smooth=%d", solutions, smooth)
			}
			q := netsim.QuiescentTraces(procs.Fig4Network().Spec, 30, netsim.RealizeOpts{})
			if len(q) != 1 {
				return "", fmt.Errorf("%d operational quiescent traces", len(q))
			}
			for _, tr := range q {
				if !tr.Channel("c").Equal(seq.OfInts(0, 2, 1)) {
					return "", fmt.Errorf("operational c = %s", tr.Channel("c"))
				}
			}
			return "2 solutions; smooth = {0 2 1}; unique operational trace has c = 0 2 1", nil
		},
	}
}

func e6() Experiment {
	return Experiment{
		ID:       "E6",
		Artefact: "§4.1 CHAOS",
		Claim:    "K ⟵ K: every trace over b is a smooth solution",
		Run: func(ctx context.Context) (string, error) {
			e := procs.Chaos("chaos", "b", value.Ints(1, 2))
			p := solver.NewProblem(e.Comp.D, map[string][]value.Value{"b": value.Ints(1, 2)}, 3)
			res := solver.Enumerate(ctx, p)
			want := 1 + 2 + 4 + 8
			if res.Solutions.Len() != want {
				return "", fmt.Errorf("%d solutions, want the full tree %d", res.Solutions.Len(), want)
			}
			return fmt.Sprintf("all %d traces to depth 3 are smooth solutions", want), nil
		},
	}
}

func e7() Experiment {
	return Experiment{
		ID:       "E7",
		Artefact: "§4.2 Ticks",
		Claim:    "b ⟵ T;b: no finite solution; (b,T)^ω is the unique path",
		Run: func(ctx context.Context) (string, error) {
			e := procs.Ticks("ticks", "b")
			p := solver.NewProblem(e.Comp.D, map[string][]value.Value{"b": {value.T, value.F}}, 6)
			res := solver.Enumerate(ctx, p)
			if res.Solutions.Len() != 0 || res.Frontier.Len() != 1 || res.Nodes != 7 {
				return "", fmt.Errorf("solutions=%d frontier=%d nodes=%d", res.Solutions.Len(), res.Frontier.Len(), res.Nodes)
			}
			gen := trace.CycleGen("ticks", trace.Of(trace.E("b", value.T)))
			if v := e.Comp.D.CheckOmega(gen, 24); !v.OmegaSolution() {
				return "", fmt.Errorf("(b,T)^ω rejected: %+v", v)
			}
			return "single 7-node path; (b,T)^ω certified to depth 24", nil
		},
	}
}

func e8() Experiment {
	return Experiment{
		ID:       "E8",
		Artefact: "§4.3 RandomBit",
		Claim:    "R(b) ⟵ T̄: smooth solutions exactly {(b,T), (b,F)}; ε excluded",
		Run: func(ctx context.Context) (string, error) {
			e := procs.RandomBit("rb", "b")
			c := check.Conformance{
				Name: "rb",
				Spec: netsim.Spec{Name: "rb", Procs: []netsim.Proc{e.Proc}},
				Problem: solver.NewProblem(e.Comp.D, map[string][]value.Value{
					"b": {value.T, value.F},
				}, 3),
				LenCap:       3,
				MaxDecisions: 6,
			}
			den, err := c.DenotationalSolutions(ctx)
			if err != nil {
				return "", err
			}
			if len(den) != 2 {
				return "", fmt.Errorf("%d solutions", len(den))
			}
			if err := c.CheckQuiescent(ctx); err != nil {
				return "", err
			}
			return "exactly (b,T) and (b,F); matches operational quiescent set", nil
		},
	}
}

func e9() Experiment {
	return Experiment{
		ID:       "E9",
		Artefact: "§4.4 RandomBitSeq",
		Claim:    "R(b) ⟵ c: one arbitrary output bit per input tick",
		Run: func(ctx context.Context) (string, error) {
			e := procs.RandomBitSeq("rbs", "c", "b")
			net := procs.WithFeeders("rbs", e, procs.ConstFeeder("env", "c", value.T, value.T))
			d, err := net.Description()
			if err != nil {
				return "", err
			}
			c := check.Conformance{
				Name: "rbs",
				Spec: net.Spec,
				Problem: solver.NewProblem(d, map[string][]value.Value{
					"c": {value.T}, "b": {value.T, value.F},
				}, 6),
				LenCap:       6,
				MaxDecisions: 16,
			}
			if err := c.CheckQuiescent(ctx); err != nil {
				return "", err
			}
			pairs := map[string]bool{}
			for _, tr := range c.OperationalQuiescent() {
				if b := tr.Channel("b"); b.Len() == 2 {
					pairs[b.String()] = true
				}
			}
			if len(pairs) != 4 {
				return "", fmt.Errorf("bit pairs %v", pairs)
			}
			return "conformance holds; all 4 two-bit outcomes produced", nil
		},
	}
}

func e10() Experiment {
	return Experiment{
		ID:       "E10",
		Artefact: "Fig 5 / §4.5",
		Claim:    "implication via R(b) ⟵ T̄, d ⟵ b AND c; both reader exercises answered",
		Run: func(ctx context.Context) (string, error) {
			for _, input := range []value.Value{value.T, value.F} {
				e := procs.Implication("imp", "c", "d")
				net := procs.WithFeeders("imp", e, procs.ConstFeeder("env", "c", input))
				d, err := net.Description()
				if err != nil {
					return "", err
				}
				c := check.Conformance{
					Name: "imp",
					Spec: net.Spec,
					Problem: solver.NewProblem(d, map[string][]value.Value{
						"imp.b": {value.T, value.F}, "c": {input}, "d": {value.T, value.F},
					}, 4),
					Visible:      trace.NewChanSet("c", "d"),
					LenCap:       4,
					MaxDecisions: 12,
				}
				if err := c.CheckQuiescent(ctx); err != nil {
					return "", err
				}
			}
			// Exercise 1: d ⟵ c AND d rejects a legitimate trace.
			bad := procs.BadImplicationSystem("bad", "c", "d").Combined()
			legit := trace.Of(trace.E("c", value.T), trace.E("d", value.T))
			if bad.IsSmoothFinite(legit) == nil {
				return "", errors.New("d ⟵ c AND d accepted (c,T)(d,T)")
			}
			// Exercise 2: non-strict AND licenses an output with no input.
			ns := procs.NonStrictImplicationSystem("ns", "b", "c", "d").Combined()
			early := trace.Of(trace.E("b", value.F), trace.E("d", value.F))
			if ns.IsSmoothFinite(early) != nil {
				return "", errors.New("non-strict AND did not exhibit the early output")
			}
			return "conformance holds for both inputs; d⟵c AND d self-causal; nsAND over-permissive", nil
		},
	}
}

func e11() Experiment {
	return Experiment{
		ID:       "E11",
		Artefact: "Fig 6 / §4.6",
		Claim:    "fork: every input routed to exactly one of d, e via the oracle",
		Run: func(ctx context.Context) (string, error) {
			e := procs.Fork("fork", "c", "d", "e")
			net := procs.WithFeeders("fork", e, procs.ConstFeeder("env", "c", value.Int(5)))
			d, err := net.Description()
			if err != nil {
				return "", err
			}
			c := check.Conformance{
				Name: "fork",
				Spec: net.Spec,
				Problem: solver.NewProblem(d, map[string][]value.Value{
					"fork.b": {value.T, value.F},
					"c":      value.Ints(5), "d": value.Ints(5), "e": value.Ints(5),
				}, 4),
				Visible:      trace.NewChanSet("c", "d", "e"),
				LenCap:       4,
				MaxDecisions: 12,
			}
			if err := c.CheckQuiescent(ctx); err != nil {
				return "", err
			}
			return "both routes realizable; projections agree with smooth solutions", nil
		},
	}
}

func e12() Experiment {
	return Experiment{
		ID:       "E12",
		Artefact: "§4.7 FairRandomSeq",
		Claim:    "TRUE(c) ⟵ trues, FALSE(c) ⟵ falses: no finite solution; fairness separates TF^ω from T^ω",
		Run: func(ctx context.Context) (string, error) {
			e := procs.FairRandomSeq("frs", "c")
			p := solver.NewProblem(e.Comp.D, map[string][]value.Value{"c": {value.T, value.F}}, 4)
			res := solver.Enumerate(ctx, p)
			if res.Solutions.Len() != 0 || res.Nodes != 31 {
				return "", fmt.Errorf("solutions=%d nodes=%d", res.Solutions.Len(), res.Nodes)
			}
			alt := trace.CycleGen("alt", trace.Of(trace.E("c", value.T), trace.E("c", value.F)))
			if v := e.Comp.D.CheckOmega(alt, 24); !v.OmegaSolution() {
				return "", fmt.Errorf("(TF)^ω rejected: %+v", v)
			}
			allT := trace.CycleGen("allT", trace.Of(trace.E("c", value.T)))
			if v := e.Comp.D.CheckOmega(allT, 24); v.OmegaSolution() {
				return "", errors.New("T^ω wrongly certified fair")
			}
			return "full binary tree of histories; (TF)^ω certified, T^ω refuted", nil
		},
	}
}

func e13() Experiment {
	return Experiment{
		ID:       "E13",
		Artefact: "§4.8 FiniteTicks",
		Claim:    "every (d,T)^i is a trace; (d,T)^ω is not — fairness via the auxiliary channel",
		Run: func(ctx context.Context) (string, error) {
			e := procs.FiniteTicks("ft", "d")
			seen := map[int]bool{}
			for _, tr := range netsim.QuiescentTraces(netsim.Spec{Name: "ft", Procs: []netsim.Proc{e.Proc}}, 7, netsim.RealizeOpts{}) {
				seen[tr.Len()] = true
			}
			for i := 0; i <= 3; i++ {
				if !seen[i] {
					return "", fmt.Errorf("(d,T)^%d unreachable", i)
				}
			}
			witness := trace.BlockGen("w", func(i int) trace.Trace {
				if i == 0 {
					return trace.Of(
						trace.E("ft.c", value.T), trace.E("d", value.T),
						trace.E("ft.c", value.T), trace.E("d", value.T),
						trace.E("ft.c", value.F),
					)
				}
				return trace.Of(trace.E("ft.c", value.T), trace.E("ft.c", value.F))
			})
			if v := e.Comp.D.CheckOmega(witness, 40); !v.OmegaSolution() {
				return "", fmt.Errorf("witness for (d,T)^2 rejected: %+v", v)
			}
			allTicks := trace.BlockGen("all", func(int) trace.Trace {
				return trace.Of(trace.E("ft.c", value.T), trace.E("d", value.T))
			})
			if v := e.Comp.D.CheckOmega(allTicks, 40); v.OmegaSolution() {
				return "", errors.New("(d,T)^ω certified — fairness broken")
			}
			return "(d,T)^0..3 all reachable; ω witness for i=2 certified; (d,T)^ω refuted", nil
		},
	}
}

func e14() Experiment {
	return Experiment{
		ID:       "E14",
		Artefact: "§4.9 RandomNumber",
		Claim:    "outputs any single natural then halts; d ⟵ h(c) over a fair-random c",
		Run: func(ctx context.Context) (string, error) {
			e := procs.RandomNumber("rn", "d")
			outs := map[int64]bool{}
			for _, tr := range netsim.QuiescentTraces(netsim.Spec{Name: "rn", Procs: []netsim.Proc{e.Proc}}, 7, netsim.RealizeOpts{}) {
				if tr.Channel("d").Len() != 1 {
					return "", fmt.Errorf("bad trace %s", tr)
				}
				outs[tr.Channel("d").At(0).MustInt()] = true
			}
			for n := int64(0); n <= 2; n++ {
				if !outs[n] {
					return "", fmt.Errorf("output %d unreachable", n)
				}
			}
			witness := trace.BlockGen("w", func(i int) trace.Trace {
				if i == 0 {
					return trace.Of(
						trace.E("rn.c", value.T), trace.E("rn.c", value.T),
						trace.E("rn.c", value.F), trace.E("d", value.Int(2)),
					)
				}
				return trace.Of(trace.E("rn.c", value.T), trace.E("rn.c", value.F))
			})
			if v := e.Comp.D.CheckOmega(witness, 40); !v.OmegaSolution() {
				return "", fmt.Errorf("witness for output 2 rejected: %+v", v)
			}
			return "outputs 0..2 reachable (more with deeper search); ω witness for 2 certified", nil
		},
	}
}

func e15() Experiment {
	return Experiment{
		ID:       "E15",
		Artefact: "Fig 7 / §4.10",
		Claim:    "fair merge via tagging; eliminating c′, d′ preserves smooth solutions",
		Run: func(ctx context.Context) (string, error) {
			// Conformance of the Figure 7 network.
			net := procs.Fig7Network()
			fc := procs.ConstFeeder("envC", "c", value.Int(10))
			fd := procs.ConstFeeder("envD", "d", value.Int(20))
			net.Spec.Procs = append(net.Spec.Procs, fc.Proc, fd.Proc)
			net.Net.Components = append(net.Net.Components, fc.Comp, fd.Comp)
			d, err := net.Description()
			if err != nil {
				return "", err
			}
			p10 := value.Pair(value.Int(0), value.Int(10))
			p20 := value.Pair(value.Int(1), value.Int(20))
			c := check.Conformance{
				Name: "fig7",
				Spec: net.Spec,
				Problem: solver.NewProblem(d, map[string][]value.Value{
					"c": value.Ints(10), "d": value.Ints(20),
					"c'": {p10}, "d'": {p20}, "b": {p10, p20},
					"e": value.Ints(10, 20),
				}, 8),
				LenCap:       8,
				MaxDecisions: 40,
			}
			if err := c.CheckQuiescent(ctx); err != nil {
				return "", err
			}
			// Elimination of the intermediate channels (Section 4.10 +
			// Theorem 5/6 side conditions).
			full := procs.FairMergeFullSystem("fm", "b", "c", "d", "e", "c'", "d'")
			s1, err := desc.Eliminate(full, 0, "c'")
			if err != nil {
				return "", err
			}
			s2, err := desc.Eliminate(s1, 0, "d'")
			if err != nil {
				return "", err
			}
			direct := procs.FairMergeSystem("fm", "b", "c", "d", "e")
			sample := trace.Of(
				trace.E("c", value.Int(10)), trace.E("b", p10), trace.E("e", value.Int(10)),
				trace.E("d", value.Int(20)), trace.E("b", p20), trace.E("e", value.Int(20)),
			)
			if (s2.Combined().IsSmoothFinite(sample) == nil) != (direct.Combined().IsSmoothFinite(sample) == nil) {
				return "", errors.New("eliminated and direct systems disagree")
			}
			return "network conformance holds; mechanical elimination equals the paper's result", nil
		},
	}
}

func e16() Experiment {
	return Experiment{
		ID:       "E16",
		Artefact: "Theorem 1",
		Claim:    "Theorem 1 prefix condition ≡ full smoothness check on independent descriptions",
		Run: func(ctx context.Context) (string, error) {
			d := desc.Combine("dfm",
				desc.MustNew("even", fn.OnChan(fn.Even, "d"), fn.ChanFn("b")),
				desc.MustNew("odd", fn.OnChan(fn.Odd, "d"), fn.ChanFn("c")),
			)
			if !d.Independent() {
				return "", errors.New("dfm not recognised as independent")
			}
			events := []trace.Event{
				trace.E("b", value.Int(0)), trace.E("c", value.Int(1)),
				trace.E("d", value.Int(0)), trace.E("d", value.Int(1)),
			}
			count := 0
			if err := sweep(events, 4, func(tr trace.Trace) error {
				count++
				if (d.IsSmoothFinite(tr) == nil) != (d.IsSmoothFiniteThm1(tr) == nil) {
					return fmt.Errorf("the prefix condition and the full check disagree on %s", tr)
				}
				return nil
			}); err != nil {
				return "", err
			}
			return fmt.Sprintf("full agreement on all %d traces to depth 4", count), nil
		},
	}
}

func e17() Experiment {
	return Experiment{
		ID:       "E17",
		Artefact: "Theorem 2",
		Claim:    "sublemma: network-smooth ⇔ all component projections smooth",
		Run: func(ctx context.Context) (string, error) {
			net := procs.Fig3Network().Net
			events := []trace.Event{
				trace.E("b", value.Int(0)), trace.E("c", value.Int(1)),
				trace.E("d", value.Int(0)), trace.E("d", value.Int(1)),
			}
			count := 0
			if err := sweep(events, 3, func(tr trace.Trace) error {
				count++
				return desc.CheckSublemma(net, tr)
			}); err != nil {
				return "", err
			}
			return fmt.Sprintf("sublemma verified on %d traces of the Fig 3 network", count), nil
		},
	}
}

func e18() Experiment {
	return Experiment{
		ID:       "E18",
		Artefact: "Theorem 4",
		Claim:    "for continuous h, the unique smooth solution of id ⟵ h is Kleene's lfp",
		Run: func(ctx context.Context) (string, error) {
			grow := fn.SeqFn{Name: "grow", Apply: func(s seq.Seq) seq.Seq {
				return seq.OfInts(5, 6, 7).Take(s.Len() + 1)
			}}
			cases := []struct {
				h     fn.SeqFn
				alpha []value.Value
				depth int
			}{
				{fn.Identity, value.Ints(0, 1), 3},
				{fn.ConstFn(seq.OfInts(4, 2)), value.Ints(0, 2, 4), 4},
				{grow, value.Ints(5, 6, 7, 9), 5},
				{fn.Even, value.Ints(0, 1, 2), 3},
			}
			for _, tc := range cases {
				if err := kahn.CheckTheorem4Trace(ctx, "x", tc.h, tc.alpha, 20, tc.depth); err != nil {
					return "", err
				}
			}
			return fmt.Sprintf("verified on %d function instances", len(cases)), nil
		},
	}
}

func e19() Experiment {
	return Experiment{
		ID:       "E19",
		Artefact: "Theorems 5, 6 / §7",
		Claim:    "elimination preserves smooth solutions; f(⊥)=⊥ counterexample; non-equivalence note",
		Run: func(ctx context.Context) (string, error) {
			// Pipeline elimination, both directions.
			sys := desc.System{Name: "pipe", Descs: []desc.Description{
				desc.MustNew("src", fn.ChanFn("a"), fn.ConstTraceFn(seq.OfInts(1))),
				desc.MustNew("mid", fn.ChanFn("b"), fn.OnChan(fn.Double, "a")),
				desc.MustNew("snk", fn.ChanFn("e"), fn.ChanFn("b")),
			}}
			full := trace.Of(
				trace.E("a", value.Int(1)), trace.E("b", value.Int(2)), trace.E("e", value.Int(2)),
			)
			if err := desc.CheckTheorem5(sys, 1, "b", full); err != nil {
				return "", err
			}
			elim, err := desc.Eliminate(sys, 1, "b")
			if err != nil {
				return "", err
			}
			s := trace.Of(trace.E("a", value.Int(1)), trace.E("e", value.Int(2)))
			if _, err := desc.Theorem6Witness(sys, 1, "b", s); err != nil {
				return "", err
			}
			_ = elim
			// f(⊥) = ⊥ counterexample: must be refused.
			konst := fn.ConstTraceFn(seq.OfInts(5))
			d1 := desc.System{Name: "D1", Descs: []desc.Description{
				desc.MustNew("def", fn.ChanFn("b"), konst),
				desc.MustNew("back", konst, fn.ChanFn("b")),
			}}
			if _, err := desc.Eliminate(d1, 0, "b"); err == nil {
				return "", errors.New("f(⊥)=⊥ condition not enforced")
			}
			// Non-equivalence note witness.
			w := trace.Of(trace.E("w", value.Int(0)), trace.E("u", value.Int(0)), trace.E("v", value.Int(0)))
			dn1 := desc.Combine("D1",
				desc.MustNew("v", fn.ChanFn("v"), fn.ChanFn("w")),
				desc.MustNew("u", fn.ChanFn("u"), fn.ChanFn("v")),
			)
			dn2 := desc.Combine("D2",
				desc.MustNew("v", fn.ChanFn("v"), fn.ChanFn("w")),
				desc.MustNew("u", fn.ChanFn("u"), fn.ChanFn("w")),
			)
			if dn2.IsSmoothFinite(w) != nil || dn1.IsSmoothFinite(w) == nil {
				return "", errors.New("non-equivalence witness behaves wrongly")
			}
			return "Thm 5/6 verified; both §7 notes reproduce", nil
		},
	}
}

func e20() Experiment {
	return Experiment{
		ID:       "E20",
		Artefact: "§8.4 induction",
		Claim:    "the rule proves safety but is too weak for progress (ignores the limit condition)",
		Run: func(ctx context.Context) (string, error) {
			p := solver.NewProblem(procs.Fig3Equations(), map[string][]value.Value{
				"d": value.IntRange(-2, 7),
			}, 5)
			safety := func(tr trace.Trace) bool {
				d := tr.Channel("d")
				for i := 0; i < d.Len(); i++ {
					m, ok := d.At(i).AsInt()
					if !ok || m <= 0 || m%2 != 0 {
						continue
					}
					if !d.Take(i).Contains(value.Int(m / 2)) {
						return false
					}
				}
				return true
			}
			if err := solver.CheckInduction(ctx, p, safety); err != nil {
				return "", err
			}
			// Progress ("1 eventually appears") is true of every actual
			// solution but the rule cannot prove it: the inductive step
			// fails (a step extending a 1-free trace by a 0 keeps it
			// 1-free, and φ is not even true of finite prefixes).
			progress := func(tr trace.Trace) bool {
				return tr.Channel("d").Contains(value.Int(1))
			}
			if err := solver.CheckInduction(ctx, p, progress); err == nil {
				return "", errors.New("rule proved a liveness property it should not")
			}
			return "safety discharged; progress correctly unprovable by the rule", nil
		},
	}
}

func e21() Experiment {
	return Experiment{
		ID:       "E21",
		Artefact: "§3.3 tree",
		Claim:    "pruned and unpruned searches agree; pruning shrinks the tree",
		Run: func(ctx context.Context) (string, error) {
			p := fig2Conformance().Problem
			p.MaxDepth = 4
			rp := solver.Enumerate(ctx, p)
			// The unpruned tree is every trace up to the depth bound, and
			// its solutions are the traces §3.2's definition accepts.
			var events []trace.Event
			for _, ch := range p.Channels {
				for _, m := range p.Alphabet[ch] {
					events = append(events, trace.E(ch, m))
				}
			}
			var traces int
			var smooth []string
			if err := sweep(events, p.MaxDepth, func(t trace.Trace) error {
				traces++
				if p.D.IsSmoothFinite(t) == nil {
					smooth = append(smooth, t.String())
				}
				return ctx.Err()
			}); err != nil {
				return "", err
			}
			sort.Strings(smooth)
			if strings.Join(rp.SolutionKeys(), "|") != strings.Join(smooth, "|") {
				return "", errors.New("solution sets differ")
			}
			if traces <= rp.Nodes {
				return "", fmt.Errorf("pruned %d vs unpruned %d nodes", rp.Nodes, traces)
			}
			return fmt.Sprintf("identical solutions; %d vs %d nodes (%.1fx reduction)",
				rp.Nodes, traces, float64(traces)/float64(rp.Nodes)), nil
		},
	}
}

// sweep calls visit on every trace over events up to the depth bound,
// in preorder, and stops at visit's first error.
func sweep(events []trace.Event, depth int, visit func(trace.Trace) error) error {
	var walk func(tr trace.Trace, depth int) error
	walk = func(tr trace.Trace, depth int) error {
		if err := visit(tr); err != nil || depth == 0 {
			return err
		}
		for _, e := range events {
			if err := walk(tr.Append(e), depth-1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(trace.Empty, depth)
}

func e22() Experiment {
	return Experiment{
		ID:       "E22",
		Artefact: "extension: §2.4 context",
		Claim:    "history-relation semantics admits exactly the anomaly more than the machine does",
		Run: func(ctx context.Context) (string, error) {
			a := histrel.MergeWith(seq.OfInts(0, 2))
			b := histrel.FromFunction(fn.FBA)
			candidates := []seq.Seq{
				seq.OfInts(0, 1, 2), seq.OfInts(0, 2, 1), seq.OfInts(1, 0, 2),
				seq.OfInts(1, 2, 0), seq.OfInts(2, 0, 1), seq.OfInts(2, 1, 0),
				seq.OfInts(0, 2), seq.Empty,
			}
			rel := histrel.FeedbackSolutions(a, b, candidates)
			if len(rel) != 2 {
				return "", fmt.Errorf("relational solutions: %d, want 2", len(rel))
			}
			op := netsim.QuiescentTraces(procs.Fig4Network().Spec, 30, netsim.RealizeOpts{})
			if len(op) != 1 {
				return "", fmt.Errorf("operational behaviours: %d, want 1", len(op))
			}
			return "relational {012, 021} vs operational {021}: gap = exactly the anomaly, closed by smoothness", nil
		},
	}
}

func e23() Experiment {
	return Experiment{
		ID:       "E23",
		Artefact: "extension: §3.1.1 ex.2 / §8.2",
		Claim:    "halt-or-tick needs an auxiliary channel; with one, conformance holds",
		Run: func(ctx context.Context) (string, error) {
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
			if err := c.CheckQuiescent(ctx); err != nil {
				return "", err
			}
			den, err := c.DenotationalSolutions(ctx)
			if err != nil {
				return "", err
			}
			if n := len(den); n != 2 {
				return "", fmt.Errorf("projected solutions: %d", n)
			}
			return "traces exactly {ε, (b,0)} via the auxiliary random bit; aux-free impossibility argued in the tests", nil
		},
	}
}

// Sorted IDs for callers that need deterministic listing.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
