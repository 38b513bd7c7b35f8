package solver

import (
	"context"
	"testing"

	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
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

// TestSearchStatsInvariants: on every corpus problem, sequential and
// parallel searches produce stats whose books balance and that agree
// with the classified result slices.
func TestSearchStatsInvariants(t *testing.T) {
	for name, p := range statsProblems() {
		p := p
		t.Run(name, func(t *testing.T) {
			for mode, res := range map[string]Result{
				"enumerate": Enumerate(context.Background(), p),
				"parallel":  EnumerateParallel(context.Background(), p, 4),
			} {
				st := res.Stats
				if err := st.CheckInvariants(res.Truncated); err != nil {
					t.Errorf("%s: %v", mode, err)
				}
				if st.Visited != res.Nodes {
					t.Errorf("%s: stats visited %d ≠ nodes %d", mode, st.Visited, res.Nodes)
				}
				if st.Solutions != len(res.Solutions) {
					t.Errorf("%s: stats solutions %d ≠ %d", mode, st.Solutions, len(res.Solutions))
				}
				if st.Frontier != len(res.Frontier) {
					t.Errorf("%s: stats frontier %d ≠ %d", mode, st.Frontier, len(res.Frontier))
				}
				if st.Dead != len(res.DeadLeaves) {
					t.Errorf("%s: stats dead %d ≠ %d", mode, st.Dead, len(res.DeadLeaves))
				}
			}
		})
	}
}

// TestStatsSequentialMatchesParallel: the deterministic counters agree
// between the two search implementations.
func TestStatsSequentialMatchesParallel(t *testing.T) {
	p := dfmProblem(5)
	a, b := Enumerate(context.Background(), p).Stats, EnumerateParallel(context.Background(), p, 4).Stats
	type det struct {
		visited, interior, frontier, dead, closed   int
		solutions, checked, kept, pruned, witnesses int
	}
	da := det{a.Visited, a.Interior, a.Frontier, a.Dead, a.Closed,
		a.Solutions, a.EdgesChecked, a.EdgesKept, a.SubtreesPruned, a.FrontierWitnesses}
	db := det{b.Visited, b.Interior, b.Frontier, b.Dead, b.Closed,
		b.Solutions, b.EdgesChecked, b.EdgesKept, b.SubtreesPruned, b.FrontierWitnesses}
	if da != db {
		t.Errorf("stats diverge:\nseq: %+v\npar: %+v", da, db)
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

// TestParallelBudgetExact: truncation follows sequential Enumerate's
// accounting exactly — MaxNodes nodes classified, then one more node
// visited as Skipped (budget+1 observed, like TestMaxNodesTruncates):
// a window never takes more nodes than the budget has left.
func TestParallelBudgetExact(t *testing.T) {
	for _, budget := range []int{1, 2, 5, 9} {
		p := dfmProblem(6)
		p.MaxNodes = budget
		res := EnumerateParallel(context.Background(), p, 4)
		if !res.Truncated {
			t.Errorf("budget %d: not truncated", budget)
		}
		if res.Nodes != budget+1 {
			t.Errorf("budget %d: visited %d nodes, want %d", budget, res.Nodes, budget+1)
		}
		if len(res.Visited) != budget+1 {
			t.Errorf("budget %d: |Visited| = %d, want %d", budget, len(res.Visited), budget+1)
		}
		if res.Stats.Skipped != 1 {
			t.Errorf("budget %d: skipped %d, want 1", budget, res.Stats.Skipped)
		}
		if err := res.Stats.CheckInvariants(true); err != nil {
			t.Errorf("budget %d: %v", budget, err)
		}
	}
}

// TestParallelBudgetPrefix: the nodes a truncated parallel search visits
// are a prefix of the untruncated search's canonical BFS order — the
// classified ones and the final skipped one alike.
func TestParallelBudgetPrefix(t *testing.T) {
	p := dfmProblem(4)
	full := EnumerateParallel(context.Background(), p, 4)
	p.MaxNodes = 6
	cut := EnumerateParallel(context.Background(), p, 4)
	if cut.Nodes != 7 {
		t.Fatalf("visited %d, want 7 (6 classified + 1 skipped)", cut.Nodes)
	}
	for i, v := range cut.Visited {
		if !v.Equal(full.Visited[i]) {
			t.Errorf("visited[%d] = %s, want %s", i, v, full.Visited[i])
		}
	}
}

// TestParallelBudgetMatchesSequential is the satellite parity test: with
// MaxNodes landing exactly mid-level and one off on each side, the
// parallel search's truncation accounting — Nodes, Truncated, Skipped,
// role counts and the Visited prefix — is byte-identical to Enumerate's.
func TestParallelBudgetMatchesSequential(t *testing.T) {
	// dfm-6's levels are 1, 2, 3, 5, ... nodes wide; budget 8 stops
	// mid-level-4, and 7/9 sit one node to each side of that cut.
	for _, budget := range []int{7, 8, 9} {
		p := dfmProblem(6)
		p.MaxNodes = budget
		seq := Enumerate(context.Background(), p)
		for _, workers := range []int{1, 3, 4} {
			par := EnumerateParallel(context.Background(), p, workers)
			if par.Nodes != seq.Nodes || par.Truncated != seq.Truncated {
				t.Errorf("budget %d w%d: nodes/truncated %d/%v, sequential %d/%v",
					budget, workers, par.Nodes, par.Truncated, seq.Nodes, seq.Truncated)
			}
			if len(par.Visited) != len(seq.Visited) {
				t.Fatalf("budget %d w%d: |Visited| %d vs %d", budget, workers, len(par.Visited), len(seq.Visited))
			}
			for i := range seq.Visited {
				if !par.Visited[i].Equal(seq.Visited[i]) {
					t.Errorf("budget %d w%d: visited[%d] = %s, want %s",
						budget, workers, i, par.Visited[i], seq.Visited[i])
				}
			}
			ds, dp := seq.Stats.Deterministic(), par.Stats.Deterministic()
			if dp.Visited != ds.Visited || dp.Skipped != ds.Skipped ||
				dp.Frontier != ds.Frontier || dp.Interior != ds.Interior ||
				dp.Dead != ds.Dead || dp.Closed != ds.Closed {
				t.Errorf("budget %d w%d: roles diverge:\nseq %+v\npar %+v", budget, workers, ds, dp)
			}
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
