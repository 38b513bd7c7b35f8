// Concurrent-search parity suite. A search runs on the goroutine that
// calls it, and smoothd's request pool runs independent searches of one
// spec at once, all sharing the spec's Problem — its description and
// the bytecode descvm caches per side. Every shipped spec is solved by
// several searches of one Problem at once, and each one's complete
// observable result — the fingerprint BENCH_solver.json tracks, the
// ordered result slices and every deterministic SearchStats counter —
// must be byte-identical to a lone search's. The CI race job runs this
// package with -race, which audits the sharing itself. It lives at the
// repo root because eqlang imports the solver, so the solver's own
// tests cannot compile specs.
package smoothproc_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
)

func TestParallelParityAcrossSpecs(t *testing.T) {
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
			p := prog.Problem()
			lone := solver.Enumerate(context.Background(), p)
			loneFp := fingerprint(spec, lone)
			loneStats := lone.Stats.Deterministic()
			results := make([]solver.Result, 4)
			var wg sync.WaitGroup
			for i := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i] = solver.Enumerate(context.Background(), p)
				}()
			}
			wg.Wait()
			for i, res := range results {
				what := fmt.Sprintf("search %d", i)
				if got := fingerprint(spec, res); got != loneFp {
					t.Errorf("%s: fingerprint drifted:\n got %+v\nwant %+v", what, got, loneFp)
				}
				// The fingerprint covers the headline counters; the full
				// normalized stats cover everything else — roles, per-level
				// histograms, eval counters, fast-path flags.
				if got := res.Stats.Deterministic(); !reflect.DeepEqual(got, loneStats) {
					t.Errorf("%s: SearchStats diverged:\n got %+v\nwant %+v", what, got, loneStats)
				}
				compareTraceSlices(t, what+" solutions", res.Solutions, lone.Solutions)
				compareTraceSlices(t, what+" frontier", res.Frontier, lone.Frontier)
				compareTraceSlices(t, what+" dead leaves", res.DeadLeaves, lone.DeadLeaves)
				compareTraceSlices(t, what+" visited", res.Visited, lone.Visited)
			}
		})
	}
}

func compareTraceSlices(t *testing.T, what string, got, want []trace.Trace) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d entries, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("%s[%d] = %s, want %s", what, i, got[i], want[i])
			return
		}
	}
}
