package solver

import (
	"context"
	"testing"
	"time"

	"smoothproc/internal/trace"
)

// A context cancelled before the search starts must stop every mode
// after at most one node, with the cancellation visible in the result.
func TestEnumerateCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Enumerate(ctx, dfmProblem(6))
	if !res.Canceled || !res.Truncated {
		t.Fatalf("cancelled search: Canceled=%v Truncated=%v, want both true", res.Canceled, res.Truncated)
	}
	if res.Nodes != 1 {
		t.Errorf("cancelled search visited %d nodes, want 1 (the root)", res.Nodes)
	}
	if err := res.Stats.CheckInvariants(res.Truncated); err != nil {
		t.Error(err)
	}
}

func TestSampleCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Sample(ctx, dfmProblem(6), SampleOpts{Seed: 1, Walks: 64})
	if !s.Canceled {
		t.Fatal("cancelled sampling did not report Canceled")
	}
	if s.Steps != 0 {
		t.Errorf("cancelled sampling took %d steps, want 0", s.Steps)
	}
}

func TestCheckInductionCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := CheckInduction(ctx, dfmProblem(4), func(trace.Trace) bool { return true })
	if err == nil {
		t.Fatal("cancelled induction check returned nil error")
	}
}

// A deadline must bound a search that the depth alone would let run far
// longer; the partial result still satisfies the stats invariants, and
// solutions found before the deadline are genuine.
func TestEnumerateDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// Depth 64 on the dfm problem is far beyond what a millisecond allows.
	res := Enumerate(ctx, dfmProblem(64))
	if !res.Canceled {
		t.Skip("search finished before the deadline; nothing to assert")
	}
	if !res.Truncated {
		t.Error("Canceled without Truncated")
	}
	if err := res.Stats.CheckInvariants(res.Truncated); err != nil {
		t.Error(err)
	}
	full := Enumerate(context.Background(), dfmProblem(6))
	for _, s := range res.Solutions.Traces() {
		if !full.Contains(s) && s.Len() > 6 {
			continue // beyond the comparison depth
		}
		if s.Len() <= 6 && !full.Contains(s) {
			t.Errorf("pre-deadline solution %s is not a real solution", s)
		}
	}
}

// An uncancelled context must leave results bit-identical to before the
// context plumbing existed: Canceled stays false everywhere.
func TestBackgroundContextIsNeutral(t *testing.T) {
	p := dfmProblem(4)
	if Enumerate(context.Background(), p).Canceled {
		t.Fatal("background context produced a Canceled result")
	}
}
