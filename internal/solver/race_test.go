package solver

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// raceFingerprint renders everything a search promises to keep
// deterministic: result slices in order, role counts, edge fates and
// the sides' apply/hit counters — the in-memory analogue of the
// repo-level BENCH_solver.json fingerprint.
func raceFingerprint(res Result) string {
	var b strings.Builder
	for _, t := range res.Visited {
		b.WriteString(t.String())
		b.WriteByte('\n')
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

// TestParallelFingerprintUnderRace runs the windowed parallel search under
// the race detector at several worker counts and asserts the full
// deterministic fingerprint — including the apply and hit counts each
// worker keeps in its own shard and run folds together — equals
// sequential Enumerate's. The CI invariants job runs this with -race; it
// backs the concurrency claims in EnumerateParallel's and worker's doc
// comments: workers share only the read-only search, and each evaluates
// the shared bytecode through VM sessions of its own.
func TestParallelFingerprintUnderRace(t *testing.T) {
	problems := map[string]Problem{
		"dfm-6": dfmProblem(6),
		"dfm-7": dfmProblem(7),
	}
	for name, p := range problems {
		p := p
		t.Run(name, func(t *testing.T) {
			want := raceFingerprint(Enumerate(context.Background(), p))
			for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
				for rep := 0; rep < 3; rep++ {
					got := raceFingerprint(EnumerateParallel(context.Background(), p, workers))
					if got != want {
						t.Fatalf("w%d rep %d: fingerprint diverged from sequential:\n--- got ---\n%s--- want ---\n%s",
							workers, rep, got, want)
					}
				}
			}
		})
	}
}

// TestParallelTruncationFingerprintUnderRace: same contract with the
// node budget biting — truncation must cut the identical prefix under
// any schedule.
func TestParallelTruncationFingerprintUnderRace(t *testing.T) {
	p := dfmProblem(7)
	p.MaxNodes = 23
	want := raceFingerprint(Enumerate(context.Background(), p))
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		for rep := 0; rep < 3; rep++ {
			got := raceFingerprint(EnumerateParallel(context.Background(), p, workers))
			if got != want {
				t.Fatalf("w%d rep %d: truncated fingerprint diverged:\n--- got ---\n%s--- want ---\n%s",
					workers, rep, got, want)
			}
		}
	}
}
