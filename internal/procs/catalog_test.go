package procs_test

import (
	"context"
	"testing"

	"smoothproc/internal/check"
	"smoothproc/internal/netsim"
	"smoothproc/internal/procs"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

func bit(b bool) value.Value { return value.Bool(b) }

func TestChaosAcceptsEverything(t *testing.T) {
	e := procs.Chaos("chaos", "b", value.Ints(1, 2))
	c := check.Conformance{
		Name: "chaos",
		Spec: netsim.Spec{Name: "chaos", Procs: []netsim.Proc{e.Proc}},
		Problem: solver.NewProblem(e.Comp.D, map[string][]value.Value{
			"b": value.Ints(1, 2),
		}, 2),
		LenCap:       2,
		MaxDecisions: 5,
	}
	if err := c.CheckQuiescent(context.Background()); err != nil {
		t.Error(err)
	}
	// Every trace over the alphabet is smooth — the Section 4.1 claim.
	res := solver.Enumerate(context.Background(), c.Problem)
	if res.Solutions.Len() != 1+2+4 {
		t.Errorf("CHAOS solutions to depth 2: %d, want 7", res.Solutions.Len())
	}
	if res.DeadLeaves.Len() != 0 {
		t.Errorf("CHAOS has dead leaves: %v", res.DeadLeaves)
	}
}

func TestTicksHistories(t *testing.T) {
	e := procs.Ticks("ticks", "b")
	c := check.Conformance{
		Name: "ticks",
		Spec: netsim.Spec{Name: "ticks", Procs: []netsim.Proc{e.Proc}},
		Problem: solver.NewProblem(e.Comp.D, map[string][]value.Value{
			"b": {value.T, value.F},
		}, 4),
		LenCap:       4,
		MaxDecisions: 4,
		Opts:         netsim.RealizeOpts{Limits: netsim.Limits{MaxEvents: 4}},
	}
	if err := c.CheckHistories(context.Background()); err != nil {
		t.Error(err)
	}
	// No finite quiescent trace on either side.
	if got := c.OperationalQuiescent(); len(got) != 0 {
		t.Errorf("ticks quiesced operationally: %v", got)
	}
	if got, err := c.DenotationalSolutions(context.Background()); err != nil || len(got) != 0 {
		t.Errorf("ticks has finite smooth solutions: %v (err %v)", got, err)
	}
}

func TestNaturalsUniqueOmegaTrace(t *testing.T) {
	e := procs.Naturals("nats", "b")
	// Section 3.1.1, example 3: the only quiescent trace is the infinite
	// (b,0)(b,1)(b,2)...
	gen := trace.FuncGen("nats", func(i int) trace.Event {
		return trace.E("b", value.Int(int64(i)))
	})
	v := e.Comp.D.CheckOmega(gen, 16)
	if !v.OmegaSolution() {
		t.Errorf("naturals ω-trace not certified: %+v", v)
	}
	// Finite prefixes are not smooth solutions (output always owed).
	for n := 0; n < 4; n++ {
		if err := e.Comp.D.IsSmoothFinite(gen.Prefix(n)); err == nil {
			t.Errorf("finite prefix of length %d accepted", n)
		}
	}
	// A stream skipping 1 fails smoothness immediately after 0.
	bad := trace.FuncGen("skip", func(i int) trace.Event {
		return trace.E("b", value.Int(int64(2*i)))
	})
	if bv := e.Comp.D.CheckOmega(bad, 8); bv.Smooth {
		t.Error("skipping stream passed smoothness")
	}
}

func TestRandomBitConformance(t *testing.T) {
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
	if err := c.CheckQuiescent(context.Background()); err != nil {
		t.Error(err)
	}
	den, err := c.DenotationalSolutions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(den) != 2 {
		t.Errorf("random bit solutions: %d, want 2 (T and F)", len(den))
	}
	if err := check.SolutionsAreRealizable(context.Background(), c); err != nil {
		t.Error(err)
	}
}

func TestRandomBitSeqConformance(t *testing.T) {
	e := procs.RandomBitSeq("rbs", "c", "b")
	net := procs.WithFeeders("rbs", e, procs.ConstFeeder("env", "c", value.T, value.T))
	d, err := net.Description()
	if err != nil {
		t.Fatal(err)
	}
	c := check.Conformance{
		Name: "rbs",
		Spec: net.Spec,
		Problem: solver.NewProblem(d, map[string][]value.Value{
			"c": {value.T},
			"b": {value.T, value.F},
		}, 6),
		LenCap:       6,
		MaxDecisions: 16,
	}
	if err := c.CheckQuiescent(context.Background()); err != nil {
		t.Error(err)
	}
	// Four complete outcomes (two bits), times interleavings; check the
	// projected b-sequences cover all four bit pairs.
	pairs := map[string]bool{}
	for _, tr := range c.OperationalQuiescent() {
		b := tr.Channel("b")
		if b.Len() == 2 {
			pairs[b.String()] = true
		}
	}
	if len(pairs) != 4 {
		t.Errorf("bit pairs produced: %v, want all 4", pairs)
	}
}

func TestImplicationConformance(t *testing.T) {
	for _, input := range []value.Value{value.T, value.F} {
		e := procs.Implication("imp", "c", "d")
		feeder := procs.ConstFeeder("env", "c", input)
		net := procs.WithFeeders("imp", e, feeder)
		d, err := net.Description()
		if err != nil {
			t.Fatal(err)
		}
		c := check.Conformance{
			Name: "imp-" + input.String(),
			Spec: net.Spec,
			Problem: solver.NewProblem(d, map[string][]value.Value{
				"imp.b": {value.T, value.F},
				"c":     {input},
				"d":     {value.T, value.F},
			}, 4),
			Visible:      trace.NewChanSet("c", "d"),
			LenCap:       4,
			MaxDecisions: 12,
		}
		if err := c.CheckQuiescent(context.Background()); err != nil {
			t.Error(err)
		}
		// Paper's trace table (Section 4.5): T input → both outputs
		// possible; F input → only F.
		outs := map[string]bool{}
		for _, tr := range c.OperationalQuiescent() {
			outs[tr.Channel("d").String()] = true
		}
		wantCount := 2
		if input.IsFalse() {
			wantCount = 1
		}
		if len(outs) != wantCount {
			t.Errorf("input %s: outputs %v, want %d distinct", input, outs, wantCount)
		}
	}
}

// TestBadImplicationExercise answers the Section 4.5 reader exercise
// mechanically: d ⟵ c AND d is not a description of the implication
// process because it rejects the legitimate trace (c,T)(d,T) — the d
// output would need itself as evidence.
func TestBadImplicationExercise(t *testing.T) {
	bad := procs.BadImplicationSystem("badimp", "c", "d").Combined()
	legit := trace.Of(trace.E("c", value.T), trace.E("d", value.T))
	if err := bad.IsSmoothFinite(legit); err == nil {
		t.Error("d ⟵ c AND d accepted (c,T)(d,T); the exercise expects rejection")
	}
	// It also wrongly rejects (c,F)(d,F) — F needs both operands under
	// the strict AND, and d's own history is still empty.
	legit2 := trace.Of(trace.E("c", value.F), trace.E("d", value.F))
	if err := bad.IsSmoothFinite(legit2); err == nil {
		t.Error("d ⟵ c AND d accepted (c,F)(d,F)")
	}
	// Whereas the paper's auxiliary-channel description accepts both
	// (after supplying the b event).
	good := procs.ImplicationSystem("imp", "b", "c", "d").Combined()
	withAux := trace.Of(
		trace.E("b", value.T), trace.E("c", value.T), trace.E("d", value.T),
	)
	if err := good.IsSmoothFinite(withAux); err != nil {
		t.Errorf("auxiliary description rejected %s: %v", withAux, err)
	}
}

// TestNonStrictAndExercise answers the second Section 4.5 exercise: with
// the non-strict AND, the description admits (d,F) before c has spoken —
// the process would owe an F output with no input, so it is NOT a valid
// description of implication.
func TestNonStrictAndExercise(t *testing.T) {
	ns := procs.NonStrictImplicationSystem("ns", "b", "c", "d").Combined()
	// b drew F, so nsAND(b, ε) = F already: the description licenses an
	// output with no input — smooth, but not a behaviour of the process.
	early := trace.Of(trace.E("b", value.F), trace.E("d", value.F))
	if err := ns.IsSmoothFinite(early); err != nil {
		t.Fatalf("expected the non-strict description to (wrongly) accept %s: %v", early, err)
	}
	// The strict description refuses the same trace.
	strict := procs.ImplicationSystem("imp", "b", "c", "d").Combined()
	if err := strict.IsSmoothFinite(early); err == nil {
		t.Error("strict description accepted an output with no input")
	}
}

func TestForkConformance(t *testing.T) {
	e := procs.Fork("fork", "c", "d", "e")
	net := procs.WithFeeders("fork", e, procs.ConstFeeder("env", "c", value.Int(5)))
	d, err := net.Description()
	if err != nil {
		t.Fatal(err)
	}
	c := check.Conformance{
		Name: "fork",
		Spec: net.Spec,
		Problem: solver.NewProblem(d, map[string][]value.Value{
			"fork.b": {value.T, value.F},
			"c":      value.Ints(5),
			"d":      value.Ints(5),
			"e":      value.Ints(5),
		}, 4),
		Visible:      trace.NewChanSet("c", "d", "e"),
		LenCap:       4,
		MaxDecisions: 12,
	}
	if err := c.CheckQuiescent(context.Background()); err != nil {
		t.Error(err)
	}
	// The item goes to exactly one of d, e.
	routes := map[string]bool{}
	for _, tr := range c.OperationalQuiescent() {
		dLen, eLen := tr.Channel("d").Len(), tr.Channel("e").Len()
		if dLen+eLen != 1 {
			t.Errorf("item mis-routed in %s", tr)
		}
		if dLen == 1 {
			routes["d"] = true
		} else {
			routes["e"] = true
		}
	}
	if !routes["d"] || !routes["e"] {
		t.Errorf("routes covered: %v, want both", routes)
	}
}

func TestFairRandomSeqOmega(t *testing.T) {
	e := procs.FairRandomSeq("frs", "c")
	// No finite smooth solution.
	p := solver.NewProblem(e.Comp.D, map[string][]value.Value{
		"c": {value.T, value.F},
	}, 4)
	res := solver.Enumerate(context.Background(), p)
	if res.Solutions.Len() != 0 {
		t.Errorf("fair random has finite solutions: %v", res.SolutionKeys())
	}
	// Every finite bit string is a tree node (any prefix extends to a
	// fair sequence)...
	if res.Nodes != 1+2+4+8+16 {
		t.Errorf("tree nodes: %d, want the full binary tree 31", res.Nodes)
	}
	// ...and operationally every history is reachable.
	c := check.Conformance{
		Name:         "frs",
		Spec:         netsim.Spec{Name: "frs", Procs: []netsim.Proc{e.Proc}},
		Problem:      p,
		LenCap:       4,
		MaxDecisions: 8,
		Opts:         netsim.RealizeOpts{Limits: netsim.Limits{MaxEvents: 4}},
	}
	if err := c.CheckHistories(context.Background()); err != nil {
		t.Error(err)
	}
	// The alternating sequence is certified fair; the all-T sequence is
	// not (FALSE(c) never grows toward falses).
	alt := trace.CycleGen("alt", trace.Of(trace.E("c", value.T), trace.E("c", value.F)))
	if v := e.Comp.D.CheckOmega(alt, 20); !v.OmegaSolution() {
		t.Errorf("alternating bits not certified: %+v", v)
	}
	allT := trace.CycleGen("allT", trace.Of(trace.E("c", value.T)))
	if v := e.Comp.D.CheckOmega(allT, 20); v.OmegaSolution() {
		t.Error("T^ω certified as fair?!")
	}
}

func TestFiniteTicksFairness(t *testing.T) {
	e := procs.FiniteTicks("ft", "d")
	// Operationally: every (d,T)^i with i small is a quiescent trace.
	seen := map[int]bool{}
	for _, tr := range netsim.QuiescentTraces(netsim.Spec{Name: "ft", Procs: []netsim.Proc{e.Proc}}, 7, netsim.RealizeOpts{}) {
		for _, ev := range tr.Events() {
			if ev.Ch != "d" || !ev.Val.IsTrue() {
				t.Fatalf("unexpected event in %s", tr)
			}
		}
		seen[tr.Len()] = true
	}
	for i := 0; i <= 3; i++ {
		if !seen[i] {
			t.Errorf("(d,T)^%d not produced", i)
		}
	}
	// Denotationally (Section 8.2): (d,T)^i is the projection of an ω
	// smooth solution whose auxiliary c is fair. Witness for i = 2:
	// c = T T F (T F)^ω with d's ticks after their causes.
	witness := trace.BlockGen("ft-witness", func(i int) trace.Trace {
		switch i {
		case 0:
			return trace.Of(
				trace.E("ft.c", value.T), trace.E("d", value.T),
				trace.E("ft.c", value.T), trace.E("d", value.T),
				trace.E("ft.c", value.F),
			)
		default:
			return trace.Of(trace.E("ft.c", value.T), trace.E("ft.c", value.F))
		}
	})
	if v := e.Comp.D.CheckOmega(witness, 40); !v.OmegaSolution() {
		t.Errorf("finite-ticks witness not certified: %+v", v)
	}
	// The fairness claim: (d,T)^ω is NOT a trace — any candidate needs
	// c = T^ω, which fails the fair-random part.
	dTicks := trace.BlockGen("all-ticks", func(int) trace.Trace {
		return trace.Of(trace.E("ft.c", value.T), trace.E("d", value.T))
	})
	if v := e.Comp.D.CheckOmega(dTicks, 40); v.OmegaSolution() {
		t.Error("(d,T)^ω certified — the fairness property is broken")
	}
}

func TestRandomNumberConformance(t *testing.T) {
	e := procs.RandomNumber("rn", "d")
	// Operationally: outputs some single natural number, then halts.
	outs := map[int64]bool{}
	for _, tr := range netsim.QuiescentTraces(netsim.Spec{Name: "rn", Procs: []netsim.Proc{e.Proc}}, 7, netsim.RealizeOpts{}) {
		if tr.Channel("d").Len() != 1 {
			t.Fatalf("random number emitted %s", tr)
		}
		outs[tr.Channel("d").At(0).MustInt()] = true
	}
	for n := int64(0); n <= 2; n++ {
		if !outs[n] {
			t.Errorf("output %d not reachable", n)
		}
	}
	// Denotational witness for output 2: c = T T F (T F)^ω, d = ⟨2⟩.
	witness := trace.BlockGen("rn-witness", func(i int) trace.Trace {
		switch i {
		case 0:
			return trace.Of(
				trace.E("rn.c", value.T), trace.E("rn.c", value.T),
				trace.E("rn.c", value.F), trace.E("d", value.Int(2)),
			)
		default:
			return trace.Of(trace.E("rn.c", value.T), trace.E("rn.c", value.F))
		}
	})
	if v := e.Comp.D.CheckOmega(witness, 40); !v.OmegaSolution() {
		t.Errorf("random-number witness not certified: %+v", v)
	}
}

func TestFairMergeEntryAgainstFigure7(t *testing.T) {
	// The single-process FairMerge entry must behave like the Figure 7
	// network on the visible channels.
	fm := procs.FairMerge("fm", "c", "d", "e")
	spec := netsim.Spec{Name: "fm", Procs: []netsim.Proc{
		fm.Proc,
		netsim.Feeder("fc", "c", value.Int(10)),
		netsim.Feeder("fd", "d", value.Int(20)),
	}}
	single := map[string]bool{}
	for _, tr := range netsim.QuiescentTraces(spec, 24, netsim.RealizeOpts{}) {
		single[tr.Project(trace.NewChanSet("c", "d", "e")).String()] = true
	}

	net := procs.Fig7Network()
	net.Spec.Procs = append(net.Spec.Procs,
		netsim.Feeder("fc", "c", value.Int(10)),
		netsim.Feeder("fd", "d", value.Int(20)),
	)
	netTraces := map[string]bool{}
	for _, tr := range netsim.QuiescentTraces(net.Spec, 40, netsim.RealizeOpts{}) {
		netTraces[tr.Project(trace.NewChanSet("c", "d", "e")).String()] = true
	}
	for k := range single {
		if !netTraces[k] {
			t.Errorf("fair-merge trace %s not produced by the Figure 7 network", k)
		}
	}
	for k := range netTraces {
		if !single[k] {
			t.Errorf("Figure 7 trace %s not produced by the fair-merge process", k)
		}
	}
}

func TestCatalogueComponentsSatisfyDC(t *testing.T) {
	entries := []procs.Entry{
		procs.Copy("copy", "a", "b"),
		procs.SeededCopy("sc", "a", "b"),
		procs.FigP("p", "d", "b"),
		procs.FigQ("q", "d", "c"),
		procs.Ticks("t", "b"),
		procs.Naturals("n", "b"),
		procs.DFM("dfm", "b", "c", "d"),
		procs.BrockAckermannA("ba-a", "b", "c"),
		procs.BrockAckermannB("ba-b", "c", "b"),
		procs.Chaos("ch", "b", value.Ints(1)),
		procs.RandomBit("rb", "b"),
		procs.RandomBitSeq("rbs", "c", "b"),
		procs.Implication("imp", "c", "d"),
		procs.Fork("fork", "c", "d", "e"),
		procs.FairRandomSeq("frs", "c"),
		procs.FiniteTicks("ft", "d"),
		procs.RandomNumber("rn", "d"),
		procs.FairMerge("fm", "c", "d", "e"),
		procs.Tagger("tag", "c", "c'", 0),
		procs.Untagger("untag", "b", "e"),
		procs.TaggedMergeD("tmd", "c'", "d'", "b"),
		procs.ConstFeeder("feed", "c", value.Int(1)),
	}
	for _, e := range entries {
		if err := e.Comp.CheckDC(); err != nil {
			t.Errorf("%s: %v", e.Comp.Name, err)
		}
		for _, aux := range e.Aux {
			if !e.Comp.Incident.Has(aux) {
				t.Errorf("%s: auxiliary %s not in incident set", e.Comp.Name, aux)
			}
			if e.Visible().Has(aux) {
				t.Errorf("%s: auxiliary %s still visible", e.Comp.Name, aux)
			}
		}
	}
}

func TestFlipCoverageViaChoose(t *testing.T) {
	// Exhaustive realization covers oracle outcomes: both random-bit
	// outputs are realizable targets.
	e := procs.RandomBit("rb", "b")
	spec := netsim.Spec{Name: "rb", Procs: []netsim.Proc{e.Proc}}
	for _, want := range []bool{true, false} {
		target := trace.Of(trace.E("b", bit(want)))
		if r := netsim.Realize(spec, target, netsim.RealizeOpts{}); !r.Found {
			t.Errorf("output %v not realizable", want)
		}
	}
}
