// Compiled-vs-interpreted differential suite: every shipped spec is
// solved with Problem.Compiled off (the interpreter, kept as the
// oracle) and on (descvm bytecode), and the complete observable result
// — the fingerprint
// BENCH_solver.json tracks, the ordered result slices and every
// deterministic SearchStats counter — must be byte-identical. This is
// the transparency contract Problem.Compiled advertises, enforced by
// the CI differential job; together with the eqlang corpus fuzz
// (FuzzCompiledVsInterpreted) it is what lets the solver treat the
// bytecode path as a pure speedup.
package smoothproc_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
)

func TestCompiledParityAcrossSpecs(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("specs", "*.eq"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no spec files found")
	}
	sort.Strings(matches)
	for _, path := range matches {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := eqlang.CompileSource(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spec := filepath.Base(path)
		t.Run(spec, func(t *testing.T) {
			// Shipped specs are written entirely in the lowerable surface
			// language; a spec that silently fell back to the interpreter
			// would turn the rest of this test into a tautology.
			if _, _, ok := prog.Bytecode(); !ok {
				t.Fatal("spec does not lower to bytecode")
			}
			interp := prog.Problem()
			interp.Compiled = false
			oracle := solver.Enumerate(context.Background(), interp)
			oracleFp := fingerprint(spec, oracle)
			oracleStats := oracle.Stats.Deterministic()
			if oracle.Stats.CompiledEval {
				t.Fatal("oracle run reports compiled evaluation")
			}

			compiled := prog.Problem()
			compiled.Compiled = true
			res := solver.Enumerate(context.Background(), compiled)
			if !res.Stats.CompiledEval {
				t.Error("compiled run did not use bytecode")
			}
			if got := fingerprint(spec, res); got != oracleFp {
				t.Errorf("fingerprint drifted:\n got %+v\nwant %+v", got, oracleFp)
			}
			if got := res.Stats.Deterministic(); !reflect.DeepEqual(got, oracleStats) {
				t.Errorf("SearchStats diverged:\n got %+v\nwant %+v", got, oracleStats)
			}
			compareTraceSlices(t, "solutions", res.Solutions, oracle.Solutions)
			compareTraceSlices(t, "frontier", res.Frontier, oracle.Frontier)
			compareTraceSlices(t, "dead leaves", res.DeadLeaves, oracle.DeadLeaves)
			compareTraceSlices(t, "visited", res.Visited, oracle.Visited)
		})
	}
}
