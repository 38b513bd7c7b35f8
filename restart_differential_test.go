// Restart differential suite: the durable-store contract behind
// smoothd's -data-dir. For every shipped spec, a solve session runs to
// half depth, is encoded and pushed through a real disk store as one
// record, then decoded back as a restarted process would do it. Both the surviving
// in-memory session and its restarted twin deepen to full depth, and
// both must land on the cold full-depth fingerprint exactly: same
// ordered solutions, same node count, same deterministic SearchStats.
// A restart is a pure pause in the approximation chain of §3.3, never a
// different search. Enforced by the CI differential job.
package smoothproc_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/session"
	"smoothproc/internal/solver"
	"smoothproc/internal/store"
)

func TestRestartParityAcrossSpecs(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("specs", "*.eq"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no spec files found")
	}
	sort.Strings(matches)
	ctx := context.Background()

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
			full := prog.Problem()
			if full.MaxDepth < 2 {
				t.Skipf("depth %d leaves no room for a half-depth restart point", full.MaxDepth)
			}
			capDepth := max(1, full.MaxDepth/2)

			// Two references: a bare cold solve pins the paper-visible
			// answer (ordered solutions), and a never-restarted cold
			// session at full depth pins the session-mode fingerprint the
			// deepened legs must reproduce exactly.
			cold := solver.Enumerate(ctx, full)
			coldSess := session.New(spec+"-cold", prog.Problem(), prog.System)
			coldRes, _, err := coldSess.Solve(ctx, session.Options{Depth: full.MaxDepth})
			if err != nil {
				t.Fatalf("cold session solve: %v", err)
			}
			coldFp := fingerprint(spec, coldRes)
			coldStats := coldRes.Stats.Deterministic()
			compareTraceSlices(t, "cold session solutions", coldRes.Solutions.Traces(), cold.Solutions.Traces())

			// First life: a session solves to half depth…
			live := session.New(spec, prog.Problem(), prog.System)
			if _, _, err := live.Solve(ctx, session.Options{Depth: capDepth}); err != nil {
				t.Fatalf("half-depth solve: %v", err)
			}

			// …and is persisted through a real disk store, one record under
			// the session's key…
			record, err := live.Encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			disk, err := store.NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key := store.KeyOf([]byte(spec))
			if err := disk.Put(ctx, store.KindSession, key, record); err != nil {
				t.Fatalf("persist: %v", err)
			}

			// Second life: read the record back through the store and
			// rebuild the session the way a restarted smoothd does.
			data, err := disk.Get(ctx, store.KindSession, key)
			if err != nil {
				t.Fatalf("reload: %v", err)
			}
			restored, err := session.Decode(data, spec, prog.Problem(), prog.System)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if err := disk.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := restored.Depth(), live.Depth(); got != want {
				t.Fatalf("restored depth %d, live %d", got, want)
			}
			if got, want := restored.Nodes(), live.Nodes(); got != want {
				t.Fatalf("restored commit pointer %d, live %d", got, want)
			}
			if got, want := fmt.Sprint(restored.Counts()), fmt.Sprint(live.Counts()); got != want {
				t.Fatalf("restored counts %s, live %s", got, want)
			}

			// Both lives deepen to full depth; both must be the cold search.
			for _, leg := range []struct {
				name string
				s    *session.Session
			}{{"live", live}, {"restored", restored}} {
				res, outcome, err := leg.s.Solve(ctx, session.Options{Depth: full.MaxDepth})
				if err != nil {
					t.Fatalf("%s deepen: %v", leg.name, err)
				}
				if outcome != session.Resumed {
					t.Errorf("%s deepen outcome = %v, want resumed", leg.name, outcome)
				}
				if got := fingerprint(spec, res); got != coldFp {
					t.Errorf("%s fingerprint drifted:\n got %+v\nwant %+v", leg.name, got, coldFp)
				}
				if got := res.Stats.Deterministic(); !reflect.DeepEqual(got, coldStats) {
					t.Errorf("%s SearchStats diverged:\n got %+v\nwant %+v", leg.name, got, coldStats)
				}
				compareTraceSlices(t, leg.name+" solutions", res.Solutions.Traces(), cold.Solutions.Traces())
			}
		})
	}
}
