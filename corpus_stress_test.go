// Corpus stress suite: one calibrated ≥1e5-node generated instance run
// end to end through the subsystems large searches exercise — the solver,
// and a solve session captured shallow then resumed to full depth — with
// the session result held to the cold solve's fingerprint. This is the -short-gated leg of the CI
// corpus job; the per-PR leg cross-checks the small families instead
// (see internal/netgen and `smoothsolve corpus`).
package smoothproc_test

import (
	"context"
	"testing"

	"smoothproc/internal/netgen"
	"smoothproc/internal/session"
)

func TestCorpusStressEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus stress is the scheduled CI leg")
	}
	// Seed 3 is the calibrated twin-buffer instance (~156k nodes) the
	// netgen and service stress tests also pin.
	s, err := netgen.Stress(3, netgen.StressConfig{})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	cold := s.Solve(ctx)
	checkEvalCounts(t, s.Name+" cold", s.Prog.Problem(), cold)
	if cold.Nodes < 100_000 {
		t.Fatalf("%s (%s): %d nodes, want >= 1e5", s.Name, s.Shape, cold.Nodes)
	}
	if uint64(cold.Nodes) < s.PredictedMin || uint64(cold.Nodes) > s.PredictedMax {
		t.Errorf("%s: %d nodes outside planner bracket [%d, %d]",
			s.Name, cold.Nodes, s.PredictedMin, s.PredictedMax)
	}

	// Session leg: capture at half depth, then deepen to full. The
	// resumed result must match the cold solve exactly — resuming a
	// stress-sized search is a pure work split, never a different search.
	sess := session.New(s.Name, s.Prog.Problem(), s.Prog.System)
	if _, outcome, err := sess.Solve(ctx, session.Options{Depth: s.Depth / 2}); err != nil {
		t.Fatal(err)
	} else if outcome != session.Cold {
		t.Fatalf("first session leg: outcome %v, want cold", outcome)
	}
	res, outcome, err := sess.Solve(ctx, session.Options{Depth: s.Depth})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != session.Resumed {
		t.Fatalf("deepening leg: outcome %v, want resumed", outcome)
	}
	if res.Nodes != cold.Nodes || len(res.Solutions) != len(cold.Solutions) {
		t.Errorf("resumed session diverged from cold solve: %d nodes / %d solutions vs %d / %d",
			res.Nodes, len(res.Solutions), cold.Nodes, len(cold.Solutions))
	}
}

// TestCorpusStressEvalCounts holds the largest calibrated instance, seed
// 0's ~1.24M-node tree, to the evaluation-count invariant (see
// eval_invariant_test.go): far past the point where a bounded
// whole-search memo would fill and start re-applying, f and g are still
// never applied twice to one node.
func TestCorpusStressEvalCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus stress is the scheduled CI leg")
	}
	s, err := netgen.Stress(0, netgen.StressConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Solve(context.Background())
	if res.Nodes < 1_000_000 || res.Truncated {
		t.Fatalf("%s (%s): %d nodes (truncated %v), want a complete search of >= 1e6", s.Name, s.Shape, res.Nodes, res.Truncated)
	}
	checkEvalCounts(t, s.Name, s.Prog.Problem(), res)
}
