// Benchmarks regenerating every evaluated artefact of the paper — one
// benchmark per paper-artefact experiment row of DESIGN.md — plus the two
// ablations called out there (Theorem 1 characterisation, Section 3.3 pruning).
// The paper is a theory paper with no timing tables; what these
// benchmarks pin down is the cost shape of the reproduction machinery:
// how tree size scales with depth, what smoothness checking costs, and
// how much the paper's own structural results (Theorem 1, edge pruning)
// buy computationally.
package smoothproc_test

import (
	"context"
	"fmt"
	"testing"

	"smoothproc/internal/check"
	"smoothproc/internal/desc"
	"smoothproc/internal/experiments"
	"smoothproc/internal/fn"
	"smoothproc/internal/kahn"
	"smoothproc/internal/netsim"
	"smoothproc/internal/procs"
	"smoothproc/internal/seq"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// BenchmarkFig1CopyLoop (E1): Kleene iteration of the Figure 1 loop and
// its seeded 0^ω variant at a fixed window.
func BenchmarkFig1CopyLoop(b *testing.B) {
	b.Run("unseeded", func(b *testing.B) {
		eqs := kahn.TwoCopyEquations()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eqs.Solve(10, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, window := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("seeded-window-%d", window), func(b *testing.B) {
			eqs := kahn.SeededCopyEquations()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eqs.Solve(window+10, window); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func fig2Problem(depth int) solver.Problem {
	net := procs.WithFeeders("fig2", procs.DFM("dfm", "b", "c", "d"),
		procs.ConstFeeder("envB", "b", value.Int(0), value.Int(2)),
		procs.ConstFeeder("envC", "c", value.Int(1)),
	)
	d, err := net.Description()
	if err != nil {
		panic(err)
	}
	return solver.NewProblem(d, map[string][]value.Value{
		"b": value.Ints(0, 2), "c": value.Ints(1), "d": value.Ints(0, 1, 2),
	}, depth)
}

// BenchmarkFig2DFM (E2): smooth-solution enumeration for the dfm network
// across probe depths — the tree growth curve.
func BenchmarkFig2DFM(b *testing.B) {
	for _, depth := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("enumerate-depth-%d", depth), func(b *testing.B) {
			p := fig2Problem(depth)
			b.ReportAllocs()
			var nodes int
			for i := 0; i < b.N; i++ {
				nodes = solver.Enumerate(context.Background(), p).Nodes
			}
			b.ReportMetric(float64(nodes), "treenodes")
		})
	}
	b.Run("operational-exhaustive", func(b *testing.B) {
		p := fig2Problem(6)
		spec := procs.WithFeeders("fig2", procs.DFM("dfm", "b", "c", "d"),
			procs.ConstFeeder("envB", "b", value.Int(0), value.Int(2)),
			procs.ConstFeeder("envC", "c", value.Int(1)),
		).Spec
		_ = p
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			netsim.QuiescentTraces(spec, 24, netsim.RealizeOpts{})
		}
	})
}

// BenchmarkFig3Network (E3): certifying x and y and refuting z at
// increasing depths.
func BenchmarkFig3Network(b *testing.B) {
	d := procs.Fig3Equations()
	gens := map[string]trace.Gen{"x": procs.Fig3X(), "y": procs.Fig3Y(), "z": procs.Fig3Z()}
	for name, g := range gens {
		for _, depth := range []int{15, 30, 60} {
			b.Run(fmt.Sprintf("%s-depth-%d", name, depth), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d.CheckOmega(g, depth)
				}
			})
		}
	}
}

// BenchmarkFig3Properties (E4): the §8.4 induction sweep for the safety
// property of Section 2.3.
func BenchmarkFig3Properties(b *testing.B) {
	phi := func(tr trace.Trace) bool {
		dHist := tr.Channel("d")
		for i := 0; i < dHist.Len(); i++ {
			m, ok := dHist.At(i).AsInt()
			if !ok || m <= 0 || m%2 != 0 {
				continue
			}
			if !dHist.Take(i).Contains(value.Int(m / 2)) {
				return false
			}
		}
		return true
	}
	p := solver.NewProblem(procs.Fig3Equations(), map[string][]value.Value{
		"d": value.IntRange(-2, 7),
	}, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := solver.CheckInduction(context.Background(), p, phi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4BrockAckermann (E5): full resolution of the anomaly —
// solver plus operational exhaustion plus the impossibility search.
func BenchmarkFig4BrockAckermann(b *testing.B) {
	full := procs.Fig4System().Combined()
	p := solver.NewProblem(full, map[string][]value.Value{
		"b": value.Ints(1), "c": value.Ints(0, 1, 2),
	}, 4)
	spec := procs.Fig4Network().Spec
	anomalous := trace.Of(
		trace.E("c", value.Int(0)), trace.E("c", value.Int(1)), trace.E("c", value.Int(2)),
	)
	b.Run("solve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if n := solver.Enumerate(context.Background(), p).Solutions.Len(); n != 1 {
				b.Fatalf("%d solutions", n)
			}
		}
	})
	b.Run("operational", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			netsim.QuiescentTraces(spec, 30, netsim.RealizeOpts{})
		}
	})
	b.Run("refute-012", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if netsim.Realize(spec, anomalous, netsim.RealizeOpts{History: true}).Found {
				b.Fatal("anomaly realized")
			}
		}
	})
}

// BenchmarkChaos (E6): the full-tree enumeration for K ⟵ K.
func BenchmarkChaos(b *testing.B) {
	e := procs.Chaos("chaos", "b", value.Ints(1, 2))
	for _, depth := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			p := solver.NewProblem(e.Comp.D, map[string][]value.Value{"b": value.Ints(1, 2)}, depth)
			b.ReportAllocs()
			var nodes int
			for i := 0; i < b.N; i++ {
				nodes = solver.Enumerate(context.Background(), p).Nodes
			}
			b.ReportMetric(float64(nodes), "treenodes")
		})
	}
}

// BenchmarkTicks (E7): the degenerate single-path tree plus ω
// certification of (b,T)^ω.
func BenchmarkTicks(b *testing.B) {
	e := procs.Ticks("ticks", "b")
	p := solver.NewProblem(e.Comp.D, map[string][]value.Value{"b": {value.T, value.F}}, 16)
	gen := trace.CycleGen("ticks", trace.Of(trace.E("b", value.T)))
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			solver.Enumerate(context.Background(), p)
		}
	})
	b.Run("omega-certify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !e.Comp.D.CheckOmega(gen, 48).OmegaSolution() {
				b.Fatal("rejected")
			}
		}
	})
}

// BenchmarkRandomBit (E8) and BenchmarkRandomBitSeq (E9): conformance of
// the oracle processes.
func BenchmarkRandomBit(b *testing.B) {
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.CheckQuiescent(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomBitSeq (E9).
func BenchmarkRandomBitSeq(b *testing.B) {
	e := procs.RandomBitSeq("rbs", "c", "b")
	net := procs.WithFeeders("rbs", e, procs.ConstFeeder("env", "c", value.T, value.T))
	d, err := net.Description()
	if err != nil {
		b.Fatal(err)
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.CheckQuiescent(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Implication (E10): conformance with the auxiliary random
// bit, both inputs, plus the two reader exercises.
func BenchmarkFig5Implication(b *testing.B) {
	for _, input := range []value.Value{value.T, value.F} {
		b.Run("input-"+input.String(), func(b *testing.B) {
			e := procs.Implication("imp", "c", "d")
			net := procs.WithFeeders("imp", e, procs.ConstFeeder("env", "c", input))
			d, err := net.Description()
			if err != nil {
				b.Fatal(err)
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
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.CheckQuiescent(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6Fork (E11): fork conformance through its oracle channel.
func BenchmarkFig6Fork(b *testing.B) {
	e := procs.Fork("fork", "c", "d", "e")
	net := procs.WithFeeders("fork", e, procs.ConstFeeder("env", "c", value.Int(5)))
	d, err := net.Description()
	if err != nil {
		b.Fatal(err)
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.CheckQuiescent(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFairRandom (E12): fairness separation — certify (TF)^ω,
// refute T^ω — across depths.
func BenchmarkFairRandom(b *testing.B) {
	e := procs.FairRandomSeq("frs", "c")
	alt := trace.CycleGen("alt", trace.Of(trace.E("c", value.T), trace.E("c", value.F)))
	allT := trace.CycleGen("allT", trace.Of(trace.E("c", value.T)))
	for _, depth := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !e.Comp.D.CheckOmega(alt, depth).OmegaSolution() {
					b.Fatal("alt rejected")
				}
				if e.Comp.D.CheckOmega(allT, depth).OmegaSolution() {
					b.Fatal("allT accepted")
				}
			}
		})
	}
}

// BenchmarkFiniteTicks (E13): the fairness-via-auxiliary-channel checks.
func BenchmarkFiniteTicks(b *testing.B) {
	e := procs.FiniteTicks("ft", "d")
	spec := netsim.Spec{Name: "ft", Procs: []netsim.Proc{e.Proc}}
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
	b.Run("operational", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			netsim.QuiescentTraces(spec, 7, netsim.RealizeOpts{})
		}
	})
	b.Run("omega-witness", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !e.Comp.D.CheckOmega(witness, 40).OmegaSolution() {
				b.Fatal("witness rejected")
			}
		}
	})
}

// BenchmarkRandomNumber (E14): exhaustive operational outcomes.
func BenchmarkRandomNumber(b *testing.B) {
	e := procs.RandomNumber("rn", "d")
	spec := netsim.Spec{Name: "rn", Procs: []netsim.Proc{e.Proc}}
	for _, depth := range []int{5, 7, 9} {
		b.Run(fmt.Sprintf("decisions-%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			var outcomes int
			for i := 0; i < b.N; i++ {
				outcomes = len(netsim.QuiescentTraces(spec, depth, netsim.RealizeOpts{}))
			}
			b.ReportMetric(float64(outcomes), "outcomes")
		})
	}
}

// BenchmarkFig7FairMerge (E15): the four-process network, conformance
// and elimination.
func BenchmarkFig7FairMerge(b *testing.B) {
	p10 := value.Pair(value.Int(0), value.Int(10))
	p20 := value.Pair(value.Int(1), value.Int(20))
	build := func() check.Conformance {
		net := procs.Fig7Network()
		fc := procs.ConstFeeder("envC", "c", value.Int(10))
		fd := procs.ConstFeeder("envD", "d", value.Int(20))
		net.Spec.Procs = append(net.Spec.Procs, fc.Proc, fd.Proc)
		net.Net.Components = append(net.Net.Components, fc.Comp, fd.Comp)
		d, err := net.Description()
		if err != nil {
			panic(err)
		}
		return check.Conformance{
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
	}
	b.Run("conformance", func(b *testing.B) {
		c := build()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.CheckQuiescent(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eliminate", func(b *testing.B) {
		full := procs.FairMergeFullSystem("fm", "b", "c", "d", "e", "c'", "d'")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s1, err := desc.Eliminate(full, 0, "c'")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := desc.Eliminate(s1, 0, "d'"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkThm1Ablation (E16): the full smoothness check against the
// Theorem 1 prefix condition on independent descriptions — the paper's
// structural result as a constant-factor optimisation.
func BenchmarkThm1Ablation(b *testing.B) {
	d := desc.Combine("dfm",
		desc.MustNew("even", fn.OnChan(fn.Even, "d"), fn.ChanFn("b")),
		desc.MustNew("odd", fn.OnChan(fn.Odd, "d"), fn.ChanFn("c")),
	)
	long := trace.Empty
	for i := 0; i < 24; i++ {
		long = long.Append(trace.E("b", value.Int(int64(2*i))))
		long = long.Append(trace.E("d", value.Int(int64(2*i))))
	}
	b.Run("full-definition", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := d.IsSmoothFinite(long); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("theorem1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := d.IsSmoothFiniteThm1(long); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkThm2Composition (E17): composing and sublemma-checking the
// Figure 3 network.
func BenchmarkThm2Composition(b *testing.B) {
	net := procs.Fig3Network().Net
	tr := trace.Of(
		trace.E("b", value.Int(0)), trace.E("d", value.Int(0)),
		trace.E("b", value.Int(0)), trace.E("c", value.Int(1)),
		trace.E("d", value.Int(0)), trace.E("d", value.Int(1)),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := desc.CheckSublemma(net, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThm4Kahn (E18): the lfp-as-smooth-solution bridge.
func BenchmarkThm4Kahn(b *testing.B) {
	grow := fn.SeqFn{Name: "grow", Apply: func(s seq.Seq) seq.Seq {
		return seq.OfInts(5, 6, 7).Take(s.Len() + 1)
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := kahn.CheckTheorem4Trace(context.Background(), "x", grow, value.Ints(5, 6, 7, 9), 20, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThm5Elimination (E19): Theorem 5 round trip plus the
// Theorem 6 witness construction.
func BenchmarkThm5Elimination(b *testing.B) {
	sys := desc.System{Name: "pipe", Descs: []desc.Description{
		desc.MustNew("src", fn.ChanFn("a"), fn.ConstTraceFn(seq.OfInts(1, 2))),
		desc.MustNew("mid", fn.ChanFn("b"), fn.OnChan(fn.Double, "a")),
		desc.MustNew("snk", fn.ChanFn("e"), fn.ChanFn("b")),
	}}
	s := trace.Of(
		trace.E("a", value.Int(1)), trace.E("e", value.Int(2)),
		trace.E("a", value.Int(2)), trace.E("e", value.Int(4)),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := desc.Theorem6Witness(sys, 1, "b", s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInduction (E20): the §8.4 rule across tree depths.
func BenchmarkInduction(b *testing.B) {
	phi := func(tr trace.Trace) bool { return tr.Channel("d").Len() <= tr.Len() }
	for _, depth := range []int{4, 5, 6} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			p := solver.NewProblem(procs.Fig3Equations(), map[string][]value.Value{
				"d": value.IntRange(-2, 7),
			}, depth)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := solver.CheckInduction(context.Background(), p, phi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeSearch (E21): the pruning ablation — the search with the
// f(v) ⊑ g(u) edge filter against the same problem's unpruned tree,
// every trace up to the depth bound checked against §3.2's definition.
func BenchmarkTreeSearch(b *testing.B) {
	for _, depth := range []int{3, 4, 5} {
		p := fig2Problem(depth)
		b.Run(fmt.Sprintf("pruned-depth-%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			var nodes int
			for i := 0; i < b.N; i++ {
				nodes = solver.Enumerate(context.Background(), p).Nodes
			}
			b.ReportMetric(float64(nodes), "treenodes")
		})
		b.Run(fmt.Sprintf("unpruned-depth-%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			var nodes int
			for i := 0; i < b.N; i++ {
				nodes = 0
				eachTrace(p, func(t trace.Trace) {
					nodes++
					_ = p.D.IsSmoothFinite(t)
				})
			}
			b.ReportMetric(float64(nodes), "treenodes")
		})
	}
}

// BenchmarkRuntime: raw operational throughput of the scheduler — events
// per run on a three-stage pipeline (not tied to a single experiment;
// the substrate every operational row depends on).
func BenchmarkRuntime(b *testing.B) {
	stage := func(name, in, out string) netsim.Proc {
		return netsim.Proc{Name: name, Body: func(c *netsim.Ctx) {
			for {
				v, ok := c.Recv(in)
				if !ok {
					return
				}
				if !c.Send(out, v) {
					return
				}
			}
		}}
	}
	feed := make([]value.Value, 64)
	for i := range feed {
		feed[i] = value.Int(int64(i))
	}
	spec := netsim.Spec{Name: "pipe", Procs: []netsim.Proc{
		netsim.Feeder("feed", "a", feed...),
		stage("s1", "a", "b"),
		stage("s2", "b", "c"),
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := netsim.Run(spec, netsim.NewRandomDecider(int64(i)), netsim.Limits{})
		if res.Reason != netsim.StopQuiescent {
			b.Fatal(res.Reason)
		}
	}
}

// BenchmarkReproSuite: the entire experiment table end to end — the cost
// of reproducing the whole paper.
func BenchmarkReproSuite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if failed := experiments.RunAll(context.Background()).Failed(); len(failed) != 0 {
			b.Fatalf("%d experiments failed", len(failed))
		}
	}
}
