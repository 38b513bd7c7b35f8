// Evaluation-count invariant: the §3.3 tree reaches every trace once,
// so a search needs f and g exactly where its edge rule says and
// nowhere else — g(u) once at u's limit check (its reuse by u's
// expansion is a carried value), f(v) once at the parent's edge check
// and again at v's limit check, and f(⊥), g(⊥) once more when the
// Theorem 1 induction-base check runs. Every need is either an
// application or a hit, and nothing is ever applied twice, however
// large the search: the books below balance exactly. Sample's random
// walks keep the f book too: each walk reads f once per limit check and
// once per evaluated edge, with f(⊥) carried from the base check.
package smoothproc_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
)

// checkEvalCounts asserts the invariant on a search of p:
// GApplies = LimitChecks, and the f book of checkFReads.
func checkEvalCounts(t *testing.T, what string, p solver.Problem, res solver.Result) {
	t.Helper()
	st := res.Stats
	if got, want := st.Eval.GApplies, int64(st.LimitChecks); got != want {
		t.Errorf("%s: g applied %d times for %d limit checks", what, got, want)
	}
	checkFReads(t, what, p, st)
}

// checkFReads asserts the f book on a search or walk of p:
// FApplies + FHits = LimitChecks + EdgesChecked − Thm1AutoEdges (+1 when
// the induction-base check ran). It is all Sample's walks keep: each
// walk re-reads g(⊥), so their g applications fall short of their limit
// checks whenever the base check supplied it.
func checkFReads(t *testing.T, what string, p solver.Problem, st solver.SearchStats) {
	t.Helper()
	want := int64(st.LimitChecks + st.EdgesChecked - st.Thm1AutoEdges)
	if p.D.Thm1Eligible() {
		want++ // the induction-base check reads f(⊥)
	}
	if got := st.Eval.FApplies + st.Eval.FHits; got != want {
		t.Errorf("%s: f read %d times (%d applies + %d hits), want %d = %d limit checks + %d evaluated edges (+ base check)",
			what, got, st.Eval.FApplies, st.Eval.FHits, want, st.LimitChecks, st.EdgesChecked-st.Thm1AutoEdges)
	}
}

func TestEvalCountInvariantAcrossSpecs(t *testing.T) {
	var paths []string
	for _, pattern := range []string{"specs/*.eq", "specs/generated/*.eq"} {
		m, err := filepath.Glob(filepath.FromSlash(pattern))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		t.Fatal("no spec files found")
	}
	ctx := context.Background()
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := eqlang.CompileSource(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		t.Run(filepath.Base(path), func(t *testing.T) {
			full := prog.Problem()
			checkEvalCounts(t, "cold", full, solver.Enumerate(ctx, full))
			if full.MaxDepth >= 2 {
				half := prog.Problem()
				half.MaxDepth = max(1, full.MaxDepth/2)
				_, cp := solver.EnumerateCapture(ctx, half)
				res, err := cp.Resume(ctx, solver.ResumeOpts{MaxDepth: full.MaxDepth, Final: true})
				if err != nil {
					t.Fatal(err)
				}
				checkEvalCounts(t, "capture → final resume", full, res)
			}
			for seed := int64(1); seed <= 3; seed++ {
				sr := solver.Sample(ctx, full, solver.SampleOpts{Seed: seed})
				checkFReads(t, fmt.Sprintf("sample seed %d", seed), full, sr.Stats)
			}
		})
	}
}
