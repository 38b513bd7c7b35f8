package netgen

import (
	"context"
	"testing"
)

// TestStressCalibration generates (without solving) a spread of stress
// instances and checks the planner bracket actually brackets the target:
// generation must be cheap enough to run per-PR even though the solves
// are not.
func TestStressCalibration(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s, err := Stress(seed, StressConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Depth < 2 {
			t.Errorf("seed %d (%s): depth %d", seed, s.Shape, s.Depth)
		}
		if s.PredictedMin == 0 || s.PredictedMax < s.PredictedMin {
			t.Errorf("seed %d (%s): degenerate bracket [%d, %d]", seed, s.Shape, s.PredictedMin, s.PredictedMax)
		}
		if s.PredictedMax < 100_000 {
			t.Errorf("seed %d (%s): bracket top %d cannot contain the 1e5 target", seed, s.Shape, s.PredictedMax)
		}
		// Same seed, same instance — byte-identical source.
		again, err := Stress(seed, StressConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Source != s.Source {
			t.Errorf("seed %d: stress generation not deterministic", seed)
		}
	}
}

// TestStressSolveReachesTarget actually runs one ≥1e5-node stress
// instance through the solver and asserts the real tree cleared the
// calibration target inside the planner's bracket.
// Skipped under -short: this is the scheduled/stress CI leg.
func TestStressSolveReachesTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("stress solve is the scheduled CI leg")
	}
	s, err := Stress(3, StressConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seq := s.Solve(context.Background())
	if seq.Nodes < 100_000 {
		t.Errorf("%s (%s): solved %d nodes, want >= 1e5", s.Name, s.Shape, seq.Nodes)
	}
	if uint64(seq.Nodes) < s.PredictedMin || uint64(seq.Nodes) > s.PredictedMax {
		t.Errorf("%s (%s): %d nodes outside predicted bracket [%d, %d]",
			s.Name, s.Shape, seq.Nodes, s.PredictedMin, s.PredictedMax)
	}
}
