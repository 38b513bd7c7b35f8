package solver

import (
	"context"
	"reflect"
	"testing"

	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// statsProblems is the invariant-test corpus: a branching merge network,
// a single-path frontier, and a dead-leaf case.
func statsProblems() map[string]Problem {
	return map[string]Problem{
		"dfm-4": dfmProblem(4),
		"dfm-6": dfmProblem(6),
		"ticks": NewProblem(
			desc.MustNew("ticks", fn.ChanFn("b"), fn.OnChan(fn.PrependFn(value.T), "b")),
			map[string][]value.Value{"b": {value.T, value.F}}, 5),
		"dead": NewProblem(
			desc.MustNew("lead", fn.ChanFn("b"), fn.ConstTraceFn(seq.OfInts(0, 2))),
			map[string][]value.Value{"b": value.Ints(0)}, 4),
	}
}

// TestSearchStatsInvariants: on every corpus problem, the search
// produces stats whose books balance and that agree with the classified
// result slices.
func TestSearchStatsInvariants(t *testing.T) {
	for name, p := range statsProblems() {
		t.Run(name, func(t *testing.T) {
			res := Enumerate(context.Background(), p)
			st := res.Stats
			if err := st.CheckInvariants(res.Truncated); err != nil {
				t.Error(err)
			}
			if st.Visited != res.Nodes {
				t.Errorf("stats visited %d ≠ nodes %d", st.Visited, res.Nodes)
			}
			if st.Solutions != res.Solutions.Len() {
				t.Errorf("stats solutions %d ≠ %d", st.Solutions, res.Solutions.Len())
			}
			if st.Frontier != res.Frontier.Len() {
				t.Errorf("stats frontier %d ≠ %d", st.Frontier, res.Frontier.Len())
			}
			if st.Dead != res.DeadLeaves.Len() {
				t.Errorf("stats dead %d ≠ %d", st.Dead, res.DeadLeaves.Len())
			}
		})
	}
}

// TestStatsSequentialMatchesParallel: searches running at once keep
// their counters apart — each reports the lone search's deterministic
// stats in full, per-level histograms and evaluation counters included.
func TestStatsSequentialMatchesParallel(t *testing.T) {
	p := dfmProblem(5)
	want := Enumerate(context.Background(), p).Stats.Deterministic()
	for i, res := range expectConcurrentMatch(t, p, 4) {
		if got := res.Stats.Deterministic(); !reflect.DeepEqual(got, want) {
			t.Errorf("search %d: stats diverge:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestStatsPrunedNonzero: the merge problem prunes real subtrees and the
// counter sees them — the measurable face of the Section 3.3 edge filter.
func TestStatsPrunedNonzero(t *testing.T) {
	res := Enumerate(context.Background(), dfmProblem(4))
	if res.Stats.SubtreesPruned == 0 {
		t.Error("no pruned subtrees on a branching problem")
	}
	if res.Stats.Eval.CacheHits() == 0 {
		t.Error("no cache hits despite shared prefixes")
	}
	var lvlPruned int
	for _, l := range res.Stats.Levels {
		lvlPruned += l.Pruned
	}
	if lvlPruned != res.Stats.SubtreesPruned {
		t.Errorf("level pruned %d ≠ total %d", lvlPruned, res.Stats.SubtreesPruned)
	}
}

// TestParallelBudgetExact: truncation accounting is exact in each of
// several budgeted searches running at once — MaxNodes nodes
// classified, then one more node visited as Skipped (budget+1 observed,
// like TestMaxNodesTruncates).
func TestParallelBudgetExact(t *testing.T) {
	for _, budget := range []int{1, 2, 5, 9} {
		p := dfmProblem(6)
		p.MaxNodes = budget
		res := expectConcurrentMatch(t, p, 2)[1]
		if !res.Truncated {
			t.Errorf("budget %d: not truncated", budget)
		}
		if res.Nodes != budget+1 {
			t.Errorf("budget %d: visited %d nodes, want %d", budget, res.Nodes, budget+1)
		}
		if res.Stats.Skipped != 1 {
			t.Errorf("budget %d: skipped %d, want 1", budget, res.Stats.Skipped)
		}
		if err := res.Stats.CheckInvariants(true); err != nil {
			t.Errorf("budget %d: %v", budget, err)
		}
	}
}

// TestParallelBudgetPrefix: the nodes a truncated search classifies are
// a prefix of the untruncated search's canonical BFS order, so each of
// its result lists is a prefix of the full search's — with a full and a
// truncated search of one Problem running at once.
func TestParallelBudgetPrefix(t *testing.T) {
	pFull := dfmProblem(4)
	pCut := pFull
	pCut.MaxNodes = 6
	res := concurrently(
		func() Result { return Enumerate(context.Background(), pFull) },
		func() Result { return Enumerate(context.Background(), pCut) })
	full, cut := res[0], res[1]
	if cut.Nodes != 7 {
		t.Fatalf("visited %d, want 7 (6 classified + 1 skipped)", cut.Nodes)
	}
	for name, pair := range map[string][2][]trace.Trace{
		"solutions":   {cut.Solutions.Traces(), full.Solutions.Traces()},
		"frontier":    {cut.Frontier.Traces(), full.Frontier.Traces()},
		"dead leaves": {cut.DeadLeaves.Traces(), full.DeadLeaves.Traces()},
	} {
		if len(pair[0]) > len(pair[1]) {
			t.Errorf("%s: %d after the cut, %d in the full search", name, len(pair[0]), len(pair[1]))
			continue
		}
		for i, v := range pair[0] {
			if !v.Equal(pair[1][i]) {
				t.Errorf("%s[%d] = %s, want %s", name, i, v, pair[1][i])
			}
		}
	}
}

// TestParallelBudgetMatchesSequential: with MaxNodes landing exactly
// mid-level and one off on each side, searches of differently budgeted
// copies of one Problem running at once each account their truncation —
// Nodes, Truncated, Skipped, role counts and the classified prefix — as
// a lone search does.
func TestParallelBudgetMatchesSequential(t *testing.T) {
	// dfm-6's levels are 1, 2, 3, 5, ... nodes wide; budget 8 stops
	// mid-level-4, and 7/9 sit one node to each side of that cut.
	budgets := []int{7, 8, 9}
	base := dfmProblem(6)
	searches := make([]func() Result, len(budgets))
	wants := make([]string, len(budgets))
	for i, budget := range budgets {
		p := base
		p.MaxNodes = budget
		wants[i] = raceFingerprint(Enumerate(context.Background(), p))
		searches[i] = func() Result { return Enumerate(context.Background(), p) }
	}
	for i, res := range concurrently(searches...) {
		if got := raceFingerprint(res); got != wants[i] {
			t.Errorf("budget %d: diverged from a lone search:\n--- got ---\n%s--- want ---\n%s", budgets[i], got, wants[i])
		}
	}
}

// TestSampleStats: the walk sampler shares prefixes across walks, so the
// memo hit rate is high and edge counters are live.
func TestSampleStats(t *testing.T) {
	res := Sample(context.Background(), dfmProblem(4), SampleOpts{Seed: 7, Walks: 16})
	if res.Stats.EdgesChecked == 0 {
		t.Error("no edges checked")
	}
	if res.Stats.Eval.CacheHits() == 0 {
		t.Error("no cache hits across walks")
	}
	if res.Stats.LimitChecks == 0 {
		t.Error("no limit checks")
	}
}

// TestStatsReportRendering: the report view exposes the acceptance
// counters under their documented names.
func TestStatsReportRendering(t *testing.T) {
	res := Enumerate(context.Background(), dfmProblem(4))
	rep := res.Stats.Report()
	pruned, ok := rep.Get("pruning", "subtrees pruned")
	if !ok || pruned != int64(res.Stats.SubtreesPruned) {
		t.Errorf("subtrees pruned: %d ok=%v", pruned, ok)
	}
	hits, ok := rep.Get("memo", "cache hits")
	if !ok || hits != res.Stats.Eval.CacheHits() {
		t.Errorf("cache hits: %d ok=%v", hits, ok)
	}
	det := rep.Deterministic()
	for _, sec := range det.Sections {
		if sec.Name == "timing" {
			t.Error("timing survived Deterministic()")
		}
	}
}
