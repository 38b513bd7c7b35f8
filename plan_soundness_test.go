// Plan-soundness differential suite: the static planner's bounds are
// checked against the search they predict, on every shipped spec. For
// each spec and each depth in {4, 6, 8}, the pruned search's actual
// node count must sit inside
// [Plan.MinNodes(d), Plan.Nodes(d)] — the lower bound is what smoothd's
// admission control rejects on, the upper bound is what the plan
// advertises, and neither is allowed to drift from the real tree. The
// searches run unbounded (MaxNodes 0): a truncated count would sit
// below the floor for the wrong reason.
package smoothproc_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
	"smoothproc/internal/specplan"
)

var planDepths = []int{4, 6, 8}

func TestPlanSoundnessAcrossSpecs(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("specs", "*.eq"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no specs found")
	}
	for _, path := range matches {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := eqlang.CompileSource(string(src))
			if err != nil {
				t.Fatal(err)
			}
			for _, depth := range planDepths {
				plan := specplan.Analyze(prog.System, prog.Alphabet, depth)
				lo, hi := plan.MinNodes(depth), plan.Nodes(depth)
				if lo > hi {
					t.Fatalf("depth %d: MinNodes %d exceeds Nodes %d", depth, lo, hi)
				}
				p := prog.Problem()
				p.MaxDepth = depth
				p.MaxNodes = 0
				p.CollectVisited = false
				actual := uint64(solver.Enumerate(context.Background(), p).Nodes)
				if actual > hi {
					t.Errorf("depth %d: search visited %d nodes, plan bound is %d — the upper bound is unsound",
						depth, actual, hi)
				}
				if actual < lo {
					t.Errorf("depth %d: search visited %d nodes, plan floor is %d — admission control would over-reject",
						depth, actual, lo)
				}
			}
		})
	}
}
