package netgen

import (
	"context"
	"strings"
	"testing"

	"smoothproc/internal/fn"
	"smoothproc/internal/netsim"
	"smoothproc/internal/solver"
	"smoothproc/internal/value"
)

// TestGeneratedNetworksConform is the randomized amplification of the
// hand-written figure tests: across many seeds, the operational
// quiescent traces of each generated network must coincide with the
// smooth solutions of its composed description.
func TestGeneratedNetworksConform(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g := MustGenerate(seed, Config{})
		if err := g.Conf.CheckQuiescent(context.Background()); err != nil {
			t.Errorf("seed %d (%s): %v", seed, g.Shape, err)
		}
	}
}

// TestGeneratedNetworksRandomRuns drives each generated network with
// random schedules and checks every step is a smooth edge.
func TestGeneratedNetworksRandomRuns(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g := MustGenerate(seed, Config{NoFork: true}) // direct (aux-free) checking
		for _, runSeed := range []int64{1, 2, 3} {
			run := netsim.Run(g.Conf.Spec, netsim.NewRandomDecider(runSeed), netsim.Limits{})
			if run.Err != nil {
				t.Fatalf("seed %d: %v", seed, run.Err)
			}
			if !solver.IsTreeNode(g.Conf.Problem.D, run.Trace) {
				t.Errorf("seed %d (%s), run %d: non-smooth step in %s", seed, g.Shape, runSeed, run.Trace)
			}
			if run.Reason == netsim.StopQuiescent {
				if err := g.Conf.Problem.D.IsSmoothFinite(run.Trace); err != nil {
					t.Errorf("seed %d (%s): quiescent run not smooth: %v", seed, g.Shape, err)
				}
			}
		}
	}
}

// TestGeneratedSolutionsRealizable checks the constructive direction on
// a smaller sample (realization search is the expensive part).
func TestGeneratedSolutionsRealizable(t *testing.T) {
	if testing.Short() {
		t.Skip("realization sweep is slow")
	}
	for seed := int64(0); seed < 8; seed++ {
		g := MustGenerate(seed, Config{MaxFeedLen: 1, MaxStages: 1, NoFork: true})
		den, err := g.Conf.DenotationalSolutions(context.Background())
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, g.Shape, err)
		}
		for _, target := range den {
			r := netsim.Realize(g.Conf.Spec, target, g.Conf.Opts)
			if !r.Found {
				t.Errorf("seed %d (%s): solution %s not realizable (exhausted=%v)", seed, g.Shape, target, r.Exhausted)
			}
		}
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a := MustGenerate(7, Config{})
	b := MustGenerate(7, Config{})
	if a.Shape != b.Shape {
		t.Errorf("shapes differ: %q vs %q", a.Shape, b.Shape)
	}
	if len(a.Conf.Problem.Channels) != len(b.Conf.Problem.Channels) {
		t.Error("channel sets differ")
	}
}

func TestShapeVariety(t *testing.T) {
	shapes := map[string]bool{}
	for seed := int64(0); seed < 30; seed++ {
		shapes[MustGenerate(seed, Config{}).Shape] = true
	}
	if len(shapes) < 8 {
		t.Errorf("only %d distinct shapes over 40 seeds", len(shapes))
	}
}

// TestConfigDefaults pins the documented defaults so the field comments
// and withDefaults cannot drift apart again (the MaxTotalEvents comment
// once said 10 while the code set 8).
func TestConfigDefaults(t *testing.T) {
	d := Config{}.withDefaults()
	if d.MaxFeedLen != 1 {
		t.Errorf("MaxFeedLen default = %d, want 1", d.MaxFeedLen)
	}
	if d.MaxStages != 2 {
		t.Errorf("MaxStages default = %d, want 2", d.MaxStages)
	}
	if d.MaxTotalEvents != 8 {
		t.Errorf("MaxTotalEvents default = %d, want 8 (as documented on Config)", d.MaxTotalEvents)
	}
	explicit := Config{MaxFeedLen: 3, MaxStages: 5, MaxTotalEvents: 20}.withDefaults()
	if explicit != (Config{MaxFeedLen: 3, MaxStages: 5, MaxTotalEvents: 20}) {
		t.Errorf("withDefaults clobbered explicit values: %+v", explicit)
	}
}

// TestDedupKeepsFirstSeenOrder proves the Hash64-bucketed dedup is
// order-preserving and first-occurrence-keeping, exactly like the old
// pairwise scan.
func TestDedupKeepsFirstSeenOrder(t *testing.T) {
	in := []value.Value{
		value.Int(4), value.Int(2), value.Int(4), value.T,
		value.Pair(value.Int(1), value.Int(2)), value.Int(2),
		value.T, value.F, value.Pair(value.Int(1), value.Int(2)), value.Int(9),
	}
	got := dedup(in)
	want := []value.Value{
		value.Int(4), value.Int(2), value.T,
		value.Pair(value.Int(1), value.Int(2)), value.F, value.Int(9),
	}
	if len(got) != len(want) {
		t.Fatalf("dedup = %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("dedup[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestDedupWideAlphabet exercises dedup on a wide mostly-distinct input
// (the case the old O(n²) scan made quadratic) and checks the result is
// exactly the first occurrence of each value in order.
func TestDedupWideAlphabet(t *testing.T) {
	const n = 5000
	in := make([]value.Value, 0, 2*n)
	for i := 0; i < n; i++ {
		in = append(in, value.Int(int64(i)))
	}
	for i := 0; i < n; i++ { // full duplicate pass
		in = append(in, value.Int(int64(i)))
	}
	got := dedup(in)
	if len(got) != n {
		t.Fatalf("dedup kept %d values, want %d", len(got), n)
	}
	for i, v := range got {
		if x, _ := v.AsInt(); x != int64(i) {
			t.Fatalf("dedup[%d] = %s, want %d (first-seen order)", i, v, i)
		}
	}
}

// TestMapStageRejectsNonMap checks the construction-time validation that
// replaced the mid-run panic: a SeqFn that is not a pointwise map is
// reported with the stage name.
func TestMapStageRejectsNonMap(t *testing.T) {
	_, _, err := mapStage("bad", "in", "out", fn.Even, []value.Value{value.Int(1)})
	if err == nil {
		t.Fatal("mapStage accepted a filter (not a map)")
	}
	if !strings.Contains(err.Error(), "bad") || !strings.Contains(err.Error(), "not a map") {
		t.Errorf("error %q does not name the stage and the violation", err)
	}
}
