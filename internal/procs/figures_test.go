package procs_test

import (
	"context"
	"strings"
	"testing"

	"smoothproc/internal/check"
	"smoothproc/internal/desc"
	"smoothproc/internal/kahn"
	"smoothproc/internal/netsim"
	"smoothproc/internal/procs"
	"smoothproc/internal/seq"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// TestFig1LeastFixpoint reproduces Section 2.1: the two-copy loop's least
// fixpoint is the pair of empty sequences, and the seeded variant's
// behaviour grows toward b = c = 0^ω.
func TestFig1LeastFixpoint(t *testing.T) {
	fix, err := kahn.TwoCopyEquations().Solve(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !fix.Converged {
		t.Fatal("fig1 iteration did not converge")
	}
	for _, ch := range []string{"b", "c"} {
		if !fix.Env[ch].IsEmpty() {
			t.Errorf("lfp %s = %s, want ε", ch, fix.Env[ch])
		}
	}

	seeded, err := kahn.SeededCopyEquations().Solve(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Repeat(seq.OfInts(0), 8)
	for _, ch := range []string{"b", "c"} {
		if !seeded.Env[ch].Equal(want) {
			t.Errorf("seeded lfp %s = %s, want %s", ch, seeded.Env[ch], want)
		}
	}
}

// TestFig1Operational checks the operational side of Figure 1: the
// unseeded loop quiesces immediately at ⊥; the seeded loop's unique
// behaviour is the growing prefix chain of ((b,0)(c,0))^ω.
func TestFig1Operational(t *testing.T) {
	quiescent := netsim.QuiescentTraces(procs.Fig1Network(), 10, netsim.RealizeOpts{})
	if len(quiescent) != 1 {
		t.Fatalf("fig1 quiescent traces = %d, want 1 (⊥)", len(quiescent))
	}
	if _, ok := quiescent[trace.Empty.String()]; !ok {
		t.Fatal("fig1 quiescent trace is not ⊥")
	}

	run := netsim.Run(procs.Fig1SeededNetwork(), netsim.NewRandomDecider(1), netsim.Limits{MaxEvents: 10})
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	wantGen := trace.CycleGen("0-loop", trace.Of(
		trace.E("b", value.Int(0)), trace.E("c", value.Int(0)),
	))
	if !run.Trace.Equal(wantGen.Prefix(10)) {
		t.Errorf("seeded run trace = %s, want %s", run.Trace, wantGen.Prefix(10))
	}
}

// TestFig1OmegaSolution checks that the 0^ω trace is certified as the ω
// smooth solution of the seeded loop's description b ⟵ 0;c, c ⟵ b.
func TestFig1OmegaSolution(t *testing.T) {
	d := desc.Combine("fig1-seeded",
		procs.SeededCopy("copy2", "c", "b").Comp.D,
		procs.Copy("copy1", "b", "c").Comp.D,
	)
	gen := trace.CycleGen("0-loop", trace.Of(
		trace.E("b", value.Int(0)), trace.E("c", value.Int(0)),
	))
	v := d.CheckOmega(gen, 24)
	if !v.OmegaSolution() {
		t.Errorf("0^ω not certified: %+v", v)
	}
	// The wrong interleaving — outputs on c before b ever carried them —
	// must fail the smoothness condition.
	bad := trace.CycleGen("bad", trace.Of(
		trace.E("c", value.Int(0)), trace.E("b", value.Int(0)),
	))
	if bv := d.CheckOmega(bad, 24); bv.Smooth {
		t.Errorf("reversed interleaving unexpectedly smooth: %+v", bv)
	}
}

// fig2Conformance is the dfm process of Figure 2 fed with evens 0,2 on b
// and odd 1 on c.
func fig2Conformance(t *testing.T) check.Conformance {
	t.Helper()
	net := procs.WithFeeders("fig2", procs.DFM("dfm", "b", "c", "d"),
		procs.ConstFeeder("envB", "b", value.Int(0), value.Int(2)),
		procs.ConstFeeder("envC", "c", value.Int(1)),
	)
	d, err := net.Description()
	if err != nil {
		t.Fatal(err)
	}
	alphabet := map[string][]value.Value{
		"b": value.Ints(0, 2),
		"c": value.Ints(1),
		"d": value.Ints(0, 1, 2),
	}
	return check.Conformance{
		Name:         "fig2",
		Spec:         net.Spec,
		Problem:      solver.NewProblem(d, alphabet, 6),
		LenCap:       6,
		MaxDecisions: 24,
	}
}

// TestFig2DFMConformance reproduces Section 2.2 both ways: the quiescent
// traces of the dfm network are exactly the smooth solutions of
// even(d) ⟵ b, odd(d) ⟵ c composed with the feeder descriptions.
func TestFig2DFMConformance(t *testing.T) {
	c := fig2Conformance(t)
	if err := c.CheckQuiescent(context.Background()); err != nil {
		t.Error(err)
	}
	if err := c.CheckHistories(context.Background()); err != nil {
		t.Error(err)
	}
	if err := check.SolutionsAreRealizable(context.Background(), c); err != nil {
		t.Error(err)
	}
	if err := check.RandomRunsAreSmooth(context.Background(), c, []int64{1, 2, 3, 4, 5, 6, 7, 8}, netsim.Limits{}); err != nil {
		t.Error(err)
	}
}

// TestFig2QuiescentExamples pins the concrete quiescent / nonquiescent
// communication histories listed in Section 3.1.1, example 1, for a dfm
// fed 0 on b and 1, 3 on c.
func TestFig2QuiescentExamples(t *testing.T) {
	net := procs.WithFeeders("fig2ex", procs.DFM("dfm", "b", "c", "d"),
		procs.ConstFeeder("envB", "b", value.Int(0)),
		procs.ConstFeeder("envC", "c", value.Int(1), value.Int(3)),
	)
	d, err := net.Description()
	if err != nil {
		t.Fatal(err)
	}
	mustEvent := func(ch string, n int64) trace.Event { return trace.E(ch, value.Int(n)) }
	quiescent := trace.Of(
		mustEvent("b", 0), mustEvent("c", 1), mustEvent("c", 3),
		mustEvent("d", 1), mustEvent("d", 3), mustEvent("d", 0),
	)
	if err := d.IsSmoothFinite(quiescent); err != nil {
		t.Errorf("paper's quiescent trace rejected: %v", err)
	}
	for _, bad := range []trace.Trace{
		trace.Of(mustEvent("b", 0)),
		trace.Of(mustEvent("b", 0), mustEvent("d", 0), mustEvent("c", 1)),
	} {
		if err := d.IsSmoothFinite(bad); err == nil {
			t.Errorf("nonquiescent history %s accepted as smooth", bad)
		}
		if !solver.IsTreeNode(d, bad) {
			t.Errorf("history %s should still be a tree node", bad)
		}
	}
}

// TestFig3Solutions reproduces Section 2.3: x and y are (ω) smooth
// solutions of equations (1,2); z satisfies the equations but violates
// smoothness at its very first element.
func TestFig3Solutions(t *testing.T) {
	d := procs.Fig3Equations()
	const depth = 30
	for _, gen := range []trace.Gen{procs.Fig3X(), procs.Fig3Y()} {
		if err := trace.CheckGenMonotone(gen, depth); err != nil {
			t.Fatal(err)
		}
		v := d.CheckOmega(gen, depth)
		if !v.OmegaSolution() {
			t.Errorf("%s not certified as ω smooth solution: %+v", gen.Name, v)
		}
	}
	z := procs.Fig3Z()
	v := d.CheckOmega(z, depth)
	if v.LimitRefuted || !v.Converging {
		t.Errorf("z should satisfy the equations in the limit: %+v", v)
	}
	if v.Smooth {
		t.Error("z passed the smoothness condition; the paper shows it must fail")
	}
	if v.SmoothFailAt != 0 {
		t.Errorf("z's violation should be at its first element (odd(-1) ⋢ 2×ε+1), got index %d", v.SmoothFailAt)
	}
}

// TestFig3OperationalSmooth checks that every operational run of the
// Figure 3 network (P, Q, dfm) takes only smooth steps with respect to
// the composed network description.
func TestFig3OperationalSmooth(t *testing.T) {
	net := procs.Fig3Network()
	d, err := net.Description()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		run := netsim.Run(net.Spec, netsim.NewRandomDecider(seed), netsim.Limits{MaxEvents: 40})
		if run.Err != nil {
			t.Fatal(run.Err)
		}
		if run.Reason == netsim.StopQuiescent {
			t.Fatalf("fig3 network quiesced — it should run forever (trace %s)", run.Trace)
		}
		if !solver.IsTreeNode(d, run.Trace) {
			t.Errorf("seed %d: run trace %s has a non-smooth step", seed, run.Trace)
		}
	}
}

// TestFig3Progress verifies the progress property of Section 2.3 on the
// two exhibited solutions: every natural number n appears in the output.
func TestFig3Progress(t *testing.T) {
	for _, gen := range []trace.Gen{procs.Fig3X(), procs.Fig3Y()} {
		prefix := gen.Prefix(2*16 - 1) // B_0..B_4 fully included
		got := prefix.Channel("d")
		for n := int64(0); n < 8; n++ {
			if !got.Contains(value.Int(n)) {
				t.Errorf("%s: natural %d missing from %s", gen.Name, n, got)
			}
		}
	}
}

// TestFig3Safety discharges the safety property of Section 2.3 — the
// appearance of 2×n (n ≥ 1) is preceded by n — with the smooth-solution
// induction rule of Section 8.4, over the bounded solution tree.
func TestFig3Safety(t *testing.T) {
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
	if err := solver.CheckInduction(context.Background(), p, phi); err != nil {
		t.Error(err)
	}
}

// TestFig4BrockAckermann reproduces Section 2.4: the equations have
// exactly two solutions in c — 0 1 2 and 0 2 1 — of which only 0 2 1 is
// smooth; and the operational network realises exactly that one.
func TestFig4BrockAckermann(t *testing.T) {
	d := procs.Fig4Equations()
	// Solutions of the equations, smoothness aside, among the
	// permutations of 0 1 2: exactly the two the paper names.
	nonSmooth, smooth := 0, 0
	var smoothTrace trace.Trace
	for _, cand := range permutations3("c") {
		limitHolds := d.LimitOK(cand)
		if !limitHolds {
			continue
		}
		nonSmooth++
		if d.IsSmoothFinite(cand) == nil {
			smooth++
			smoothTrace = cand
		}
	}
	if nonSmooth != 2 {
		t.Errorf("equations have %d solutions among permutations, want 2", nonSmooth)
	}
	if smooth != 1 {
		t.Fatalf("%d smooth solutions, want exactly 1", smooth)
	}
	want021 := seq.OfInts(0, 2, 1)
	if !smoothTrace.Channel("c").Equal(want021) {
		t.Errorf("smooth solution is %s, want c = %s", smoothTrace, want021)
	}

	// The full-system view (with channel b) via the pruned tree.
	full := procs.Fig4System().Combined()
	p := solver.NewProblem(full, map[string][]value.Value{
		"b": value.Ints(1),
		"c": value.Ints(0, 1, 2),
	}, 4)
	res := solver.Enumerate(context.Background(), p)
	if res.Solutions.Len() != 1 {
		t.Fatalf("full system has %d smooth solutions, want 1: %v", res.Solutions.Len(), res.SolutionKeys())
	}
	if got := res.Solutions.At(0).Channel("c"); !got.Equal(want021) {
		t.Errorf("full-system smooth solution has c = %s, want %s", got, want021)
	}

	// Operationally: the unique quiescent trace carries c = 0 2 1.
	net := procs.Fig4Network()
	quiescent := netsim.QuiescentTraces(net.Spec, 30, netsim.RealizeOpts{})
	if len(quiescent) != 1 {
		keys := make([]string, 0, len(quiescent))
		for k := range quiescent {
			keys = append(keys, k)
		}
		t.Fatalf("fig4 has %d quiescent traces, want 1: %s", len(quiescent), strings.Join(keys, " "))
	}
	for _, tr := range quiescent {
		if got := tr.Channel("c"); !got.Equal(want021) {
			t.Errorf("operational c = %s, want %s", got, want021)
		}
		if err := full.IsSmoothFinite(tr); err != nil {
			t.Errorf("operational quiescent trace not smooth: %v", err)
		}
	}
}

// permutations3 returns the six orderings of 0, 1, 2 on the channel.
func permutations3(ch string) []trace.Trace {
	var out []trace.Trace
	nums := []int64{0, 1, 2}
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		tr := trace.Empty
		for _, i := range p {
			tr = tr.Append(trace.E(ch, value.Int(nums[i])))
		}
		out = append(out, tr)
	}
	return out
}

// TestFig7FairMerge checks the fair-merge network of Figure 7 end to end
// with small inputs: operational quiescent traces projected on {c,d,e}
// agree with the smooth solutions of the composed description.
func TestFig7FairMerge(t *testing.T) {
	net := procs.Fig7Network()
	feederC := procs.ConstFeeder("envC", "c", value.Int(10))
	feederD := procs.ConstFeeder("envD", "d", value.Int(20))
	net.Spec.Procs = append(net.Spec.Procs, feederC.Proc, feederD.Proc)
	net.Net.Components = append(net.Net.Components, feederC.Comp, feederD.Comp)
	d, err := net.Description()
	if err != nil {
		t.Fatal(err)
	}
	p10, p20 := value.Pair(value.Int(0), value.Int(10)), value.Pair(value.Int(1), value.Int(20))
	alphabet := map[string][]value.Value{
		"c":  value.Ints(10),
		"d":  value.Ints(20),
		"c'": {p10},
		"d'": {p20},
		"b":  {p10, p20},
		"e":  value.Ints(10, 20),
	}
	c := check.Conformance{
		Name:         "fig7",
		Spec:         net.Spec,
		Problem:      solver.NewProblem(d, alphabet, 8),
		LenCap:       8,
		MaxDecisions: 40,
	}
	if err := c.CheckQuiescent(context.Background()); err != nil {
		t.Error(err)
	}
	// Both merge orders must appear among the outputs.
	outs := map[string]bool{}
	for _, tr := range c.OperationalQuiescent() {
		outs[tr.Channel("e").String()] = true
	}
	for _, want := range []string{seq.OfInts(10, 20).String(), seq.OfInts(20, 10).String()} {
		if !outs[want] {
			t.Errorf("merge order %s not produced; got %v", want, outs)
		}
	}
}
