package solver

import (
	"fmt"
	"time"

	"smoothproc/internal/report"
)

// SearchStats instruments one Section 3.3 tree search. Each visited node
// is classified into exactly one role:
//
//   - Interior: below the depth bound with at least one smooth son —
//     the node was expanded.
//   - Frontier: at the depth bound with at least one smooth son — a
//     path toward ω solutions (Result.Frontier).
//   - Dead: no smooth son and the limit condition fails — a stuck
//     history (Result.DeadLeaves).
//   - Closed: no smooth son and the limit condition holds — a sonless
//     smooth solution, the search's true leaves.
//   - Skipped: visited when the node budget ran out, left unclassified.
//
// Solutions counts limit-condition holders and cuts across roles: a
// solution may be Closed (no sons) or Interior/Frontier (the process can
// quiesce here or go on — nondeterminism the paper's Section 3.1.1
// examples rely on).
//
// Edge accounting: EdgesChecked counts candidate one-step extensions
// examined; each is kept (EdgesKept — the son is enqueued), pruned
// (SubtreesPruned — the f(v) ⊑ g(u) filter cut the entire subtree below
// the candidate before it was ever expanded), or a frontier witness
// (FrontierWitnesses — a smooth son of a depth-bound node, proving
// frontier membership without being enqueued).
type SearchStats struct {
	Visited  int `json:"visited"`
	Interior int `json:"interior"`
	Frontier int `json:"frontier"`
	Dead     int `json:"dead"`
	Closed   int `json:"closed"`
	Skipped  int `json:"skipped"`

	Solutions   int `json:"solutions"`
	LimitChecks int `json:"limit_checks"`

	EdgesChecked      int `json:"edges_checked"`
	EdgesKept         int `json:"edges_kept"`
	SubtreesPruned    int `json:"subtrees_pruned"`
	FrontierWitnesses int `json:"frontier_witnesses"`

	// RetainedSons counts kept edges whose son is held in a checkpoint's
	// resume frontier instead of being visited: a capture-mode search
	// expands depth-bound nodes in full and retains the sons for a later
	// resume. Always zero for plain solves and for Final resume legs (the
	// frontier has been consumed), so cold-vs-resumed fingerprints still
	// compare byte for byte.
	RetainedSons int `json:"retained_sons,omitempty"`

	// Thm1FastPath records that the search ran with the Theorem 1 fast
	// path active: the description is eligible (independent supports, a
	// left side that is not an ω-approximation) and the induction base
	// f(⊥) ⊑ g(⊥) held.
	Thm1FastPath bool `json:"thm1_fast_path,omitempty"`
	// Thm1AutoEdges counts candidates the fast path admitted without any
	// evaluation; each is also counted in EdgesChecked and in EdgesKept
	// (or FrontierWitnesses at the depth bound), so the edge-fate books
	// balance with or without the shortcut.
	Thm1AutoEdges int `json:"thm1_auto_edges,omitempty"`

	// CompiledEval records that both description sides ran on descvm
	// bytecode (both lowered). Run configuration, not a search
	// observable: every other deterministic counter is equal with the
	// flag on or off, which is what the compiled-vs-interpreted
	// differential suite asserts.
	CompiledEval bool `json:"compiled_eval,omitempty"`

	// Levels holds per-depth stats, indexed by trace length.
	Levels []LevelStats `json:"levels,omitempty"`

	// Eval is the account of the description's two sides: f/g
	// applications, hits (reads of a value carried down a tree edge), and
	// where evaluation time went.
	Eval EvalStats `json:"eval"`

	// Elapsed is the wall-clock duration of the search.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// EvalStats counts what the description's two sides cost a search:
// underlying applications, hits (reads served from a value the search
// carried down a tree edge instead of re-applying), and the time spent
// inside f and g.
type EvalStats struct {
	// FApplies and GApplies count underlying applications of the two
	// sides.
	FApplies int64 `json:"f_applies"`
	GApplies int64 `json:"g_applies"`
	// FHits and GHits count reads of a side served from a carried value,
	// so hits + applies is the number of times the search needed each
	// side.
	FHits int64 `json:"f_hits"`
	GHits int64 `json:"g_hits"`
	// FNanos and GNanos are the wall-clock nanoseconds spent inside
	// interpreted applications. Bytecode runs are not timed: at the
	// paper's spec sizes two clock reads cost as much as a whole compiled
	// evaluation, so a compiled search reports zero. Deterministic zeroes
	// both, so the asymmetry never reaches a fingerprint.
	FNanos int64 `json:"f_nanos"`
	GNanos int64 `json:"g_nanos"`
}

// CacheHits returns the total hits across both sides.
func (s EvalStats) CacheHits() int64 { return s.FHits + s.GHits }

// CacheMisses returns the total underlying applications across both
// sides.
func (s EvalStats) CacheMisses() int64 { return s.FApplies + s.GApplies }

// LevelStats is the per-depth view of the search: how wide the tree was
// at each level and how much of it the smoothness filter cut.
type LevelStats struct {
	Depth     int `json:"depth"`
	Nodes     int `json:"nodes"`
	Solutions int `json:"solutions"`
	// Pruned counts subtrees cut at this depth: candidates of length
	// Depth rejected by the edge filter.
	Pruned int `json:"pruned"`
}

// level returns the stats slot for the given depth, growing as needed.
func (s *SearchStats) level(depth int) *LevelStats {
	for len(s.Levels) <= depth {
		s.Levels = append(s.Levels, LevelStats{Depth: len(s.Levels)})
	}
	return &s.Levels[depth]
}

// CheckInvariants verifies the books balance. Beyond arithmetic, these
// encode the search's contract: every visited node has exactly one role,
// every examined edge has exactly one fate, and (absent truncation)
// every kept edge leads to exactly one visited node — the tree property.
func (s SearchStats) CheckInvariants(truncated bool) error {
	if got := s.Interior + s.Frontier + s.Dead + s.Closed + s.Skipped; got != s.Visited {
		return fmt.Errorf("solver: stats: roles %d ≠ visited %d (interior %d + frontier %d + dead %d + closed %d + skipped %d)",
			got, s.Visited, s.Interior, s.Frontier, s.Dead, s.Closed, s.Skipped)
	}
	if got := s.EdgesKept + s.SubtreesPruned + s.FrontierWitnesses; got != s.EdgesChecked {
		return fmt.Errorf("solver: stats: edge fates %d ≠ edges checked %d", got, s.EdgesChecked)
	}
	if !truncated {
		if s.Skipped != 0 {
			return fmt.Errorf("solver: stats: %d skipped nodes without truncation", s.Skipped)
		}
		if s.Visited != s.EdgesKept-s.RetainedSons+1 {
			return fmt.Errorf("solver: stats: visited %d ≠ kept edges %d − retained sons %d + root",
				s.Visited, s.EdgesKept, s.RetainedSons)
		}
	}
	var lvlNodes, lvlSols, lvlPruned int
	for _, l := range s.Levels {
		lvlNodes += l.Nodes
		lvlSols += l.Solutions
		lvlPruned += l.Pruned
	}
	if lvlNodes != s.Visited-s.Skipped {
		return fmt.Errorf("solver: stats: level nodes %d ≠ classified nodes %d", lvlNodes, s.Visited-s.Skipped)
	}
	if lvlSols != s.Solutions {
		return fmt.Errorf("solver: stats: level solutions %d ≠ solutions %d", lvlSols, s.Solutions)
	}
	if lvlPruned != s.SubtreesPruned {
		return fmt.Errorf("solver: stats: level pruned %d ≠ pruned %d", lvlPruned, s.SubtreesPruned)
	}
	return nil
}

// Report renders the stats in the repository's stable stats format (see
// package report): the deterministic sections of DeterministicReport,
// with the levels section kept even when empty, and then the timing
// section, which is wall-clock and varies run to run.
func (s SearchStats) Report() report.Stats {
	r := s.render(true)
	timing := report.Section{Name: "timing", Items: make([]report.Item, 0, 3)}
	timing.Add("search elapsed", int64(s.Elapsed), "ns")
	timing.Add("f evaluation", s.Eval.FNanos, "ns")
	timing.Add("g evaluation", s.Eval.GNanos, "ns")
	r.Sections = append(r.Sections, timing)
	return r
}

// DeterministicReport equals Report().Deterministic(), rendered without
// the timing section it would drop: search, pruning, memo, and levels
// when non-empty. smoothd sends it with every solve.
func (s SearchStats) DeterministicReport() report.Stats { return s.render(false) }

// levelNames holds the levels section's item names for the depths a
// served search reaches (smoothd caps depth at 12 by default), formatted
// once.
var levelNames = func() (t [16][3]string) {
	for d := range t {
		t[d] = formatLevelNames(d)
	}
	return t
}()

func formatLevelNames(d int) [3]string {
	return [3]string{fmt.Sprintf("level %d nodes", d), fmt.Sprintf("level %d solutions", d), fmt.Sprintf("level %d pruned", d)}
}

// levelItemNames returns the levels section's item names for depth d.
func levelItemNames(d int) [3]string {
	if d < len(levelNames) {
		return levelNames[d]
	}
	return formatLevelNames(d)
}

// render builds the deterministic sections, each at its final size.
// withEmptyLevels keeps a levels section that has no items, as Report
// always has, and leaves room for the timing section.
func (s SearchStats) render(withEmptyLevels bool) report.Stats {
	search := report.Section{Name: "search", Items: make([]report.Item, 0, 8)}
	search.AddInt("nodes visited", s.Visited)
	search.AddInt("interior nodes", s.Interior)
	search.AddInt("frontier nodes", s.Frontier)
	search.AddInt("dead leaves", s.Dead)
	search.AddInt("closed solutions", s.Closed)
	search.AddInt("skipped (budget)", s.Skipped)
	search.AddInt("smooth solutions", s.Solutions)
	search.AddInt("limit checks", s.LimitChecks)

	pruning := report.Section{Name: "pruning", Items: make([]report.Item, 0, 6)}
	pruning.AddInt("edges checked", s.EdgesChecked)
	pruning.AddInt("edges kept", s.EdgesKept)
	pruning.AddInt("subtrees pruned", s.SubtreesPruned)
	pruning.AddInt("frontier witnesses", s.FrontierWitnesses)
	pruning.AddInt("thm1 auto edges", s.Thm1AutoEdges)
	if s.RetainedSons > 0 {
		// Only capture-mode (resumable) searches retain sons, so plain
		// solve goldens are unchanged.
		pruning.AddInt("retained sons", s.RetainedSons)
	}

	memo := report.Section{Name: "memo", Items: make([]report.Item, 0, 5)}
	memo.Add("cache hits", s.Eval.CacheHits(), "")
	memo.Add("cache misses", s.Eval.CacheMisses(), "")
	memo.Add("f applications", s.Eval.FApplies, "")
	memo.Add("g applications", s.Eval.GApplies, "")
	if s.CompiledEval {
		// Only rendered when on, so interpreted-run goldens are unchanged.
		memo.AddInt("compiled eval", 1)
	}

	r := report.Stats{Sections: make([]report.Section, 0, 5)}
	r.Sections = append(r.Sections, search, pruning, memo)
	if len(s.Levels) == 0 {
		if withEmptyLevels {
			r.Sections = append(r.Sections, report.Section{Name: "levels"})
		}
		return r
	}
	levels := report.Section{Name: "levels", Items: make([]report.Item, 0, 3*len(s.Levels))}
	for _, l := range s.Levels {
		names := levelItemNames(l.Depth)
		levels.AddInt(names[0], l.Nodes)
		levels.AddInt(names[1], l.Solutions)
		levels.AddInt(names[2], l.Pruned)
	}
	r.Sections = append(r.Sections, levels)
	return r
}

// Deterministic returns a copy with every timing- and
// configuration-dependent field zeroed: CompiledEval (run
// configuration), Elapsed, and the evaluation wall-clock readings. Two
// searches of the same problem — compiled or interpreted, cold or
// resumed — produce equal Deterministic views; the differential suites
// and the CI smoke assertion compare exactly this.
func (s SearchStats) Deterministic() SearchStats {
	s.CompiledEval = false
	s.Elapsed = 0
	s.Eval.FNanos = 0
	s.Eval.GNanos = 0
	return s
}
