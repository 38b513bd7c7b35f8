package specplan_test

import (
	"context"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
	"smoothproc/internal/specplan"
)

// plan compiles an eqlang source and analyzes it at the given depth.
func plan(t *testing.T, src string, depth int) (*specplan.Plan, *eqlang.Program) {
	t.Helper()
	prog, err := eqlang.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return specplan.Analyze(prog.System, prog.Alphabet, depth), prog
}

// actualNodes runs the real search and reports its node count.
func actualNodes(t *testing.T, prog *eqlang.Program, depth int) uint64 {
	t.Helper()
	p := prog.Problem()
	p.MaxDepth = depth
	res := solver.Enumerate(context.Background(), p)
	if res.Truncated {
		t.Fatalf("reference search truncated")
	}
	return uint64(res.Nodes)
}

// channelPlan fetches one channel's analysis.
func channelPlan(t *testing.T, p *specplan.Plan, c string) specplan.ChannelPlan {
	t.Helper()
	for _, cp := range p.Channels {
		if cp.Channel == c {
			return cp
		}
	}
	t.Fatalf("no plan for channel %s", c)
	return specplan.ChannelPlan{}
}

// A channel defined by a constant caps its own history: every admitted
// node has |hist_c| ≤ |f(c)| ≤ 2, and the forced-value refinement
// pins branching to 1. The bound is exact here: the tree is the chain
// ⊥, (c,0), (c,0)(c,2).
func TestConstCapIsExact(t *testing.T) {
	src := "alphabet c = ints 0 .. 4\ndesc c <- [0, 2]\n"
	p, prog := plan(t, src, 6)
	cp := channelPlan(t, p, "c")
	if cp.Bound != 1 {
		t.Errorf("Bound = %d, want 1 (forced-value refinement)", cp.Bound)
	}
	if cp.Cap != 2 {
		t.Errorf("Cap = %d, want 2 (constant right side)", cp.Cap)
	}
	if p.MaxPathLen != 2 {
		t.Errorf("MaxPathLen = %d, want 2", p.MaxPathLen)
	}
	if got := p.Nodes(6); got != 3 {
		t.Errorf("Nodes(6) = %d, want 3", got)
	}
	if actual := actualNodes(t, prog, 6); actual != 3 {
		t.Errorf("search visited %d nodes, the bound claims exactness at 3", actual)
	}
}

// A self-defining channel never grows: f = hist_c forces one new
// element while g = hist_c stays put, so |g| ≤ |f| kills every pinned
// extension. Same for the divergent affine map 2*c+1.
func TestSelfAndDivergentChannelsAreDead(t *testing.T) {
	for _, src := range []string{
		"alphabet c = ints 0 .. 3\ndesc c <- c\n",
		"alphabet c = ints 0 .. 3\ndesc c <- 2*c + 1\n",
	} {
		p, prog := plan(t, src, 8)
		cp := channelPlan(t, p, "c")
		if !cp.Dead || cp.Bound != 0 {
			t.Errorf("%q: channel c not proved dead (bound %d)", src, cp.Bound)
		}
		if got := p.Nodes(8); got != 1 {
			t.Errorf("%q: Nodes(8) = %d, want 1", src, got)
		}
		if actual := actualNodes(t, prog, 8); actual != 1 {
			t.Errorf("%q: search visited %d nodes", src, actual)
		}
	}
}

// The Kahn buffer e <- a is the Theorem 1 poster child: supp(f) = {e}
// and supp(g) = {a} are disjoint, so channel a is auto-admitted —
// branching exactly |alpha(a)| = 2 — while e's forced value pins its
// branching to 1. The plan brackets the real search from both sides.
func TestKahnBufferBrackets(t *testing.T) {
	src := "alphabet a = {0, 1}\nalphabet e = {0, 1}\ndesc e <- a\n"
	p, prog := plan(t, src, 4)
	if !p.Thm1FastPath {
		t.Fatal("Theorem 1 fast path not detected")
	}
	if a := channelPlan(t, p, "a"); !a.Auto || a.Bound != 2 {
		t.Errorf("channel a: auto=%v bound=%d, want auto with bound 2", a.Auto, a.Bound)
	}
	if e := channelPlan(t, p, "e"); e.Auto || e.Bound != 1 {
		t.Errorf("channel e: auto=%v bound=%d, want pinned bound 1", e.Auto, e.Bound)
	}
	if p.AutoBranch != 2 || p.BranchBound != 3 {
		t.Errorf("A=%d B=%d, want A=2 B=3", p.AutoBranch, p.BranchBound)
	}
	lo, hi := p.MinNodes(4), p.Nodes(4)
	if lo != 31 || hi != 121 {
		t.Errorf("MinNodes(4)=%d Nodes(4)=%d, want 31 and 121", lo, hi)
	}
	actual := actualNodes(t, prog, 4)
	if actual < lo || actual > hi {
		t.Errorf("search visited %d nodes, outside [%d, %d]", actual, lo, hi)
	}
}

// Figure 4's Brock-Ackermann network: even(c)'s filter admits the two
// even messages, the forced-value refinement keeps only one of them,
// and the same argument bounds b. Not independent, so no Theorem 1
// floor.
func TestFig4BranchBounds(t *testing.T) {
	src := "alphabet b = {1}\nalphabet c = ints 0 .. 2\n" +
		"desc even(c) <- [0, 2]\ndesc odd(c) <- b\ndesc b <- fBA(c)\n"
	p, prog := plan(t, src, 4)
	if c := channelPlan(t, p, "c"); c.Bound != 2 {
		t.Errorf("channel c bound = %d, want 2", c.Bound)
	}
	if b := channelPlan(t, p, "b"); b.Bound != 1 {
		t.Errorf("channel b bound = %d, want 1", b.Bound)
	}
	if p.Thm1FastPath {
		t.Error("fast path claimed on a dependent system")
	}
	if p.MinNodes(4) != 1 {
		t.Errorf("MinNodes(4) = %d, want the trivial floor 1", p.MinNodes(4))
	}
	if actual, bound := actualNodes(t, prog, 4), p.Nodes(4); actual > bound {
		t.Errorf("search visited %d nodes, bound is %d", actual, bound)
	}
}

// A failed induction base f(⊥) ⊑ g(⊥) pins the tree at {⊥} exactly
// (admitting any node would chain f(⊥) ⊑ f(v) ⊑ g(⊥) by monotonicity).
func TestFailedBasePinsTreeAtRoot(t *testing.T) {
	src := "alphabet c = {0}\ndesc repeat [1] <- [0]\ndesc c <- c\n"
	p, prog := plan(t, src, 6)
	if p.BaseHolds {
		t.Fatal("base claimed to hold")
	}
	if got := p.Nodes(6); got != 1 {
		t.Errorf("Nodes(6) = %d, want exactly 1", got)
	}
	if actual := actualNodes(t, prog, 6); actual != 1 {
		t.Errorf("search visited %d nodes", actual)
	}
	if len(p.OmegaDescs) == 0 {
		t.Error("ω-constant left side not reported in OmegaDescs")
	}
}

// Two descriptions on disjoint channel sets partition into two groups.
func TestPartitionWidth(t *testing.T) {
	src := "alphabet a = {0}\nalphabet e = {0}\nalphabet x = {0}\nalphabet y = {0}\n" +
		"desc e <- a\ndesc y <- x\n"
	p, _ := plan(t, src, 4)
	if p.PartitionWidth != 2 {
		t.Fatalf("partition width = %d, want 2 (groups: %v)", p.PartitionWidth, p.Partition)
	}
	for _, g := range p.Partition {
		if len(g.Channels) != 2 || len(g.Descs) != 1 {
			t.Errorf("group %v: want 2 channels and 1 desc", g)
		}
	}
}

// Node bounds saturate rather than wrap: the Kahn buffer's 3-ary bound
// at depth 200 parks at the ceiling and formats as "inf".
func TestBoundsSaturate(t *testing.T) {
	src := "alphabet a = {0, 1}\nalphabet e = {0, 1}\ndesc e <- a\n"
	p, _ := plan(t, src, 4)
	if got := p.Nodes(200); got != specplan.Sat {
		t.Errorf("Nodes(200) = %d, want saturation", got)
	}
	if s := specplan.FormatBound(specplan.Sat); s != "inf" {
		t.Errorf("FormatBound(Sat) = %q", s)
	}
}

// Every lowerable side of every plan passes the bytecode verifier, and
// the shareability estimate stays a ratio.
func TestPlanHousekeeping(t *testing.T) {
	src := "alphabet b = {1}\nalphabet c = ints 0 .. 2\n" +
		"desc even(c) <- [0, 2]\ndesc odd(c) <- b\ndesc b <- fBA(c)\n"
	p, _ := plan(t, src, 6)
	if p.VerifyError != "" {
		t.Errorf("bytecode verifier rejected a compiled side: %s", p.VerifyError)
	}
	if p.LoweredSides == 0 {
		t.Error("no side lowered to bytecode")
	}
	if p.Shareability < 0 || p.Shareability > 1 {
		t.Errorf("shareability %v outside [0,1]", p.Shareability)
	}
	if p.Summary() == "" {
		t.Error("empty summary")
	}
}
