package solver

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"smoothproc/internal/trace"
)

// expectResultsEqual compares the complete observable result — slices,
// counters, deterministic stats — between a resumed and a cold search.
func expectResultsEqual(t *testing.T, what string, got, want Result) {
	t.Helper()
	if got.Nodes != want.Nodes || got.Truncated != want.Truncated || got.Canceled != want.Canceled {
		t.Errorf("%s: nodes/flags: got (%d,%v,%v), want (%d,%v,%v)",
			what, got.Nodes, got.Truncated, got.Canceled, want.Nodes, want.Truncated, want.Canceled)
	}
	for _, s := range []struct {
		name      string
		got, want []trace.Trace
	}{
		{"solutions", got.Solutions, want.Solutions},
		{"frontier", got.Frontier, want.Frontier},
		{"dead leaves", got.DeadLeaves, want.DeadLeaves},
		{"visited", got.Visited, want.Visited},
	} {
		if len(s.got) != len(s.want) {
			t.Errorf("%s: %s: %d traces, want %d", what, s.name, len(s.got), len(s.want))
			continue
		}
		for i := range s.got {
			if !s.got[i].Equal(s.want[i]) {
				t.Errorf("%s: %s[%d] = %s, want %s", what, s.name, i, s.got[i], s.want[i])
				break
			}
		}
	}
	if g, w := got.Stats.Deterministic(), want.Stats.Deterministic(); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: deterministic stats diverged:\n got %+v\nwant %+v", what, g, w)
	}
}

// TestCaptureResumeFinalMatchesCold is the core deepening contract: a
// capture at depth d resumed in Final mode to depth D is byte-identical
// to a cold plain solve at D — result slices, fingerprint counters and
// evaluation hit/apply counts. Each leg runs either alone ("seq") or as
// one of two independent legs of the same Problem at once ("par"), as a
// session leg and another request for the spec do in smoothd.
func TestCaptureResumeFinalMatchesCold(t *testing.T) {
	ctx := context.Background()
	const capDepth, fullDepth = 2, 5
	cold := Enumerate(ctx, dfmProblem(fullDepth))
	if err := cold.Stats.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name           string
		capPar, resPar bool
	}{
		{"seq-seq", false, false},
		{"seq-par", false, true},
		{"par-seq", true, false},
		{"par-par", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			half := dfmProblem(capDepth)
			var caps [2]Result
			var cps [2]*Checkpoint
			each(tc.capPar, 2, func(i int) { caps[i], cps[i] = EnumerateCapture(ctx, half) })
			var res [2]Result
			var errs [2]error
			each(tc.resPar, 2, func(i int) {
				res[i], errs[i] = cps[i].Resume(ctx, ResumeOpts{MaxDepth: fullDepth, Final: true})
			})
			for i, cp := range cps {
				if err := caps[i].Stats.CheckInvariants(false); err != nil {
					t.Fatal(err)
				}
				if caps[i].Nodes >= cold.Nodes {
					t.Fatalf("capture at depth %d classified %d nodes, not fewer than the %d at depth %d",
						capDepth, caps[i].Nodes, cold.Nodes, fullDepth)
				}
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				expectResultsEqual(t, fmt.Sprintf("%s leg %d", tc.name, i), res[i], cold)
				if cp.Resumable() {
					t.Error("checkpoint still resumable after a Final resume")
				}
				if _, err := cp.Resume(ctx, ResumeOpts{MaxDepth: fullDepth + 1}); err == nil {
					t.Error("resume after Final should fail")
				}
			}
		})
	}
}

// TestCaptureResumeChain deepens one checkpoint across several capture
// legs; each leg's Solutions and classifications must match a cold solve
// at that leg's depth, and the final leg resumed Final must match cold
// byte for byte.
func TestCaptureResumeChain(t *testing.T) {
	ctx := context.Background()
	_, cp := EnumerateCapture(ctx, dfmProblem(1))
	for depth := 2; depth <= 4; depth++ {
		res, err := cp.Resume(ctx, ResumeOpts{MaxDepth: depth})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		cold := Enumerate(ctx, dfmProblem(depth))
		// Capture-mode legs classify identically to cold; only bound-level
		// edge accounting differs (see the package comment in checkpoint.go).
		if got, want := res.SolutionKeys(), cold.SolutionKeys(); !reflect.DeepEqual(got, want) {
			t.Errorf("depth %d: solutions %v, want %v", depth, got, want)
		}
		if res.Nodes != cold.Nodes || len(res.Frontier) != len(cold.Frontier) || len(res.DeadLeaves) != len(cold.DeadLeaves) {
			t.Errorf("depth %d: classification counts (%d,%d,%d), want (%d,%d,%d)",
				depth, res.Nodes, len(res.Frontier), len(res.DeadLeaves),
				cold.Nodes, len(cold.Frontier), len(cold.DeadLeaves))
		}
		if err := res.Stats.CheckInvariants(false); err != nil {
			t.Errorf("depth %d: %v", depth, err)
		}
	}
	res, err := cp.Resume(ctx, ResumeOpts{MaxDepth: 5, Final: true})
	if err != nil {
		t.Fatal(err)
	}
	expectResultsEqual(t, "chained final", res, Enumerate(ctx, dfmProblem(5)))
}

// TestCaptureBudgetResume truncates a capture with MaxNodes below the
// first depth-bound level and resumes it unbounded: the pending queue
// must carry the cut exactly, and the final result must match cold.
func TestCaptureBudgetResume(t *testing.T) {
	ctx := context.Background()
	const depth = 4
	cold := Enumerate(ctx, dfmProblem(depth))
	if cold.Nodes < 12 {
		t.Fatalf("test wants a tree bigger than 12 nodes, got %d", cold.Nodes)
	}
	p := dfmProblem(depth)
	p.MaxNodes = 7
	capRes, cp := EnumerateCapture(ctx, p)
	if !capRes.Truncated {
		t.Fatal("capture with MaxNodes=7 not truncated")
	}
	if cp.PendingSize() == 0 {
		t.Fatal("truncated capture retained no pending nodes")
	}
	res, err := cp.Resume(ctx, ResumeOpts{MaxDepth: depth, Final: true})
	if err != nil {
		t.Fatal(err)
	}
	// A truncated capture has evaluated exactly what it committed:
	// evaluation counters included, the resume matches cold.
	expectResultsEqual(t, "budget-resume", res, cold)
}

// TestResumeValidation pins the guard rails: shrinking depth, exhausted
// budgets and same-depth Final resumes over a live frontier all fail.
func TestResumeValidation(t *testing.T) {
	ctx := context.Background()
	_, cp := EnumerateCapture(ctx, dfmProblem(2))
	if _, err := cp.Resume(ctx, ResumeOpts{MaxDepth: 1}); err == nil {
		t.Error("resume below the captured depth should fail")
	}
	if _, err := cp.Resume(ctx, ResumeOpts{MaxDepth: 4, MaxNodes: cp.Nodes()}); err == nil {
		t.Error("resume with an already-spent budget should fail")
	}
	if cp.FrontierSize() > 0 {
		if _, err := cp.Resume(ctx, ResumeOpts{Final: true}); err == nil {
			t.Error("same-depth Final resume over a live frontier should fail")
		}
	}
}

// TestOnSolutionStreamsCanonically checks the streaming hook: the search
// emits its solutions in the canonical order of Result.Solutions, and a
// resume emits exactly the new ones.
func TestOnSolutionStreamsCanonically(t *testing.T) {
	ctx := context.Background()
	p := dfmProblem(4)
	var seq []string
	p.OnSolution = func(tr trace.Trace) { seq = append(seq, tr.String()) }
	res := Enumerate(ctx, p)
	if len(seq) != len(res.Solutions) {
		t.Fatalf("emitted %d, result has %d", len(seq), len(res.Solutions))
	}
	for i, tr := range res.Solutions {
		if seq[i] != tr.String() {
			t.Fatalf("emission[%d] = %s, want %s", i, seq[i], tr)
		}
	}

	// Resume emits only the new solutions.
	capP := dfmProblem(2)
	capRes, cp := EnumerateCapture(ctx, capP)
	var resumed []string
	full, err := cp.Resume(ctx, ResumeOpts{MaxDepth: 4, OnSolution: func(tr trace.Trace) {
		resumed = append(resumed, tr.String())
	}})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(full.Solutions) - len(capRes.Solutions); len(resumed) != want {
		t.Errorf("resume emitted %d solutions, want the %d new ones", len(resumed), want)
	}
}
