package solver

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"smoothproc/internal/trace"
)

// Concurrent-search suite. A search runs on the goroutine that calls
// it; what several searches share is their Problem — the description
// and the bytecode descvm.Compile caches per side — exactly what
// smoothd's request pool shares when two requests for one spec run at
// once. The tests here start independent searches of one shared Problem
// at the same time and require each to match a lone search. The CI
// invariants job runs this package with -race, so the sharing itself is
// audited, not only the answers.

// raceFingerprint renders everything a search promises to keep
// deterministic: result slices in order, role counts, edge fates and
// the sides' apply/hit counters — the in-memory analogue of the
// repo-level BENCH_solver.json fingerprint.
func raceFingerprint(res Result) string {
	var b strings.Builder
	for _, ts := range [][]trace.Trace{res.Solutions.Traces(), res.Frontier.Traces(), res.DeadLeaves.Traces()} {
		for _, t := range ts {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
		b.WriteString("--\n")
	}
	st := res.Stats.Deterministic()
	fmt.Fprintf(&b, "nodes=%d sol=%s frontier=%d dead=%d closed=%d interior=%d skipped=%d\n",
		res.Nodes, strings.Join(res.SolutionKeys(), "|"), st.Frontier, st.Dead, st.Closed, st.Interior, st.Skipped)
	fmt.Fprintf(&b, "checked=%d kept=%d pruned=%d witnesses=%d limit=%d\n",
		st.EdgesChecked, st.EdgesKept, st.SubtreesPruned, st.FrontierWitnesses, st.LimitChecks)
	fmt.Fprintf(&b, "fapplies=%d gapplies=%d fhits=%d ghits=%d\n",
		st.Eval.FApplies, st.Eval.GApplies, st.Eval.FHits, st.Eval.GHits)
	return b.String()
}

// interpreted returns p with both sides opaque, which is exactly what a
// side that does not lower looks like: the search runs the interpreter,
// the oracle the bytecode is held to.
func interpreted(p Problem) Problem {
	p.D.F.IR, p.D.G.IR = nil, nil
	return p
}

// each runs f(0), …, f(n-1): at once, one goroutine each, when par is
// set, and one after another otherwise.
func each(par bool, n int, f func(i int)) {
	if !par {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// concurrently runs every search at once and returns the results in
// argument order.
func concurrently(searches ...func() Result) []Result {
	out := make([]Result, len(searches))
	each(true, len(searches), func(i int) { out[i] = searches[i]() })
	return out
}

// expectConcurrentMatch runs n searches of the one Problem p at once and
// requires each to match a lone search's fingerprint. It returns the
// concurrent results for further checks.
func expectConcurrentMatch(t *testing.T, p Problem, n int) []Result {
	t.Helper()
	ctx := context.Background()
	want := raceFingerprint(Enumerate(ctx, p))
	searches := make([]func() Result, n)
	for i := range searches {
		searches[i] = func() Result { return Enumerate(ctx, p) }
	}
	got := concurrently(searches...)
	for i, res := range got {
		if fp := raceFingerprint(res); fp != want {
			t.Errorf("search %d of %d: fingerprint diverged from a lone search:\n--- got ---\n%s--- want ---\n%s", i, n, fp, want)
		}
	}
	return got
}

// captureResume captures p at half its depth and resumes the checkpoint
// Final to the full depth — the session path, which must land on the
// cold search.
func captureResume(t *testing.T, p Problem) Result {
	ctx := context.Background()
	half := p
	half.MaxDepth = p.MaxDepth / 2
	_, cp := EnumerateCapture(ctx, half)
	res, err := cp.Resume(ctx, ResumeOpts{MaxDepth: p.MaxDepth, Final: true})
	if err != nil {
		t.Errorf("resume: %v", err)
	}
	return res
}

// TestParallelFingerprintUnderRace runs plain and capture→resume
// searches of one shared Problem at once, each on bytecode and on the
// interpreter, and requires every one to reproduce the lone search's
// full deterministic fingerprint.
func TestParallelFingerprintUnderRace(t *testing.T) {
	for name, p := range map[string]Problem{"dfm-6": dfmProblem(6), "dfm-7": dfmProblem(7)} {
		t.Run(name, func(t *testing.T) {
			want := raceFingerprint(Enumerate(context.Background(), p))
			var searches []func() Result
			for _, q := range []Problem{p, interpreted(p)} {
				searches = append(searches,
					func() Result { return Enumerate(context.Background(), q) },
					func() Result { return Enumerate(context.Background(), q) },
					func() Result { return captureResume(t, q) },
					func() Result { return captureResume(t, q) })
			}
			for i, res := range concurrently(searches...) {
				if got := raceFingerprint(res); got != want {
					t.Errorf("search %d: fingerprint diverged from a lone search:\n--- got ---\n%s--- want ---\n%s", i, got, want)
				}
				// The first half runs on bytecode, the second on the
				// interpreter.
				if compiled := i < len(searches)/2; res.Stats.CompiledEval != compiled {
					t.Errorf("search %d: CompiledEval = %v, want %v", i, res.Stats.CompiledEval, compiled)
				}
			}
		})
	}
}

// TestParallelTruncationFingerprintUnderRace: the same with the node
// budget biting. Every truncated search cuts the identical prefix, and
// every truncated capture resumed Final without a budget lands on the
// untruncated search.
func TestParallelTruncationFingerprintUnderRace(t *testing.T) {
	ctx := context.Background()
	full := dfmProblem(7)
	cut := full
	cut.MaxNodes = 23
	wantCut := raceFingerprint(Enumerate(ctx, cut))
	wantFull := raceFingerprint(Enumerate(ctx, full))
	budgetResume := func(q Problem) Result {
		_, cp := EnumerateCapture(ctx, q)
		res, err := cp.Resume(ctx, ResumeOpts{Final: true})
		if err != nil {
			t.Errorf("budget resume: %v", err)
		}
		return res
	}
	var searches []func() Result
	var wants []string
	for _, q := range []Problem{cut, interpreted(cut)} {
		searches = append(searches,
			func() Result { return Enumerate(ctx, q) },
			func() Result { return Enumerate(ctx, q) },
			func() Result { return budgetResume(q) })
		wants = append(wants, wantCut, wantCut, wantFull)
	}
	for i, res := range concurrently(searches...) {
		if got := raceFingerprint(res); got != wants[i] {
			t.Errorf("search %d: fingerprint diverged:\n--- got ---\n%s--- want ---\n%s", i, got, wants[i])
		}
		// The first half runs on bytecode, the second on the interpreter.
		if compiled := i < len(searches)/2; res.Stats.CompiledEval != compiled {
			t.Errorf("search %d: CompiledEval = %v, want %v", i, res.Stats.CompiledEval, compiled)
		}
	}
}

// TestParallelMatchesSequential runs 1, 2 and 8 searches of one shared
// Problem at once on several problems.
func TestParallelMatchesSequential(t *testing.T) {
	for name, p := range statsProblems() {
		if name == "dead" {
			continue
		}
		for _, n := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s-w%d", name, n), func(t *testing.T) {
				expectConcurrentMatch(t, p, n)
			})
		}
	}
}

// TestParallelIsDeterministic: searches running at once visit the tree
// in the one canonical order (the fingerprint holds the result lists in
// order).
func TestParallelIsDeterministic(t *testing.T) {
	expectConcurrentMatch(t, dfmProblem(5), 4)
}

// TestParallelNodeBudget: each of several budgeted searches running at
// once stops at its own budget.
func TestParallelNodeBudget(t *testing.T) {
	p := dfmProblem(6)
	p.MaxNodes = 5
	for i, res := range expectConcurrentMatch(t, p, 4) {
		if !res.Truncated {
			t.Errorf("search %d: budget not enforced", i)
		}
	}
}
