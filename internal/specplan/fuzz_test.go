package specplan_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
	"smoothproc/internal/specplan"
)

// FuzzAnalyze holds the planner to its contract on any source that
// compiles: Analyze does not panic; MinNodes(d) ≤ Nodes(d), and both are
// non-decreasing for d = 0…8; and for d ≤ 3 with Nodes(d) ≤ 2,000, a
// search to depth d visits a node count inside [MinNodes(d), Nodes(d)].
// The last rule also holds the search to the planner on programs nobody
// wrote. The search's budget is one node past the bracket, so an
// unsound bound shows as a truncation instead of a long search.
func FuzzAnalyze(f *testing.F) {
	for _, s := range eqlang.Corpus() {
		f.Add(s)
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.eq"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no shipped specs to seed from (%v)", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := eqlang.CompileSource(src)
		if err != nil {
			return
		}
		plan := specplan.Analyze(prog.System, prog.Alphabet, prog.Depth)
		var prevLo, prevHi uint64
		for d := 0; d <= 8; d++ {
			lo, hi := plan.MinNodes(d), plan.Nodes(d)
			if lo > hi {
				t.Fatalf("depth %d: MinNodes %d > Nodes %d", d, lo, hi)
			}
			if lo < prevLo || hi < prevHi {
				t.Fatalf("depth %d: bracket [%d, %d] below depth %d's [%d, %d]", d, lo, hi, d-1, prevLo, prevHi)
			}
			prevLo, prevHi = lo, hi
			if d > 3 || hi > 2000 {
				continue
			}
			p := prog.Problem()
			p.MaxDepth, p.MaxNodes = d, int(hi)+1
			res := solver.Enumerate(context.Background(), p)
			if n := uint64(res.Nodes); res.Truncated || n < lo || n > hi {
				t.Fatalf("depth %d: the search visits %d nodes (truncated %v), outside the bracket [%d, %d]",
					d, res.Nodes, res.Truncated, lo, hi)
			}
		}
	})
}
