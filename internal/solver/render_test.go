package solver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
)

// TestDeterministicReportMatchesReport: the stats smoothd sends with
// every solve, rendered in one pass, equal Report().Deterministic(),
// both as a struct and as the JSON bytes that go on the wire.
func TestDeterministicReportMatchesReport(t *testing.T) {
	kahn := kahnBuffer(t).Problem()
	opaque := kahn
	opaque.D.F.IR, opaque.D.G.IR = nil, nil
	budget := kahn
	budget.MaxNodes = 20
	ticks, err := eqlang.CompileSource("alphabet k0 = {T, F}\ndepth 20\ndesc k0 <- repeat [T]\n")
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		run  func() solver.Result
		want func(t *testing.T, st solver.SearchStats)
	}{
		{"compiled", func() solver.Result { return solver.Enumerate(context.Background(), kahn) },
			func(t *testing.T, st solver.SearchStats) {
				if !st.CompiledEval {
					t.Error("kahn-buffer did not run on bytecode")
				}
			}},
		{"interpreted", func() solver.Result { return solver.Enumerate(context.Background(), opaque) },
			func(t *testing.T, st solver.SearchStats) {
				if st.CompiledEval {
					t.Error("opaque sides ran on bytecode")
				}
			}},
		{"capture", func() solver.Result { res, _ := solver.EnumerateCapture(context.Background(), kahn); return res },
			func(t *testing.T, st solver.SearchStats) {
				if st.RetainedSons == 0 {
					t.Error("capture retained no sons")
				}
			}},
		{"budget", func() solver.Result { return solver.Enumerate(context.Background(), budget) },
			func(t *testing.T, st solver.SearchStats) {
				if st.Skipped == 0 {
					t.Error("the budget cut nothing")
				}
			}},
		{"canceled", func() solver.Result { return solver.Enumerate(canceled, kahn) },
			func(t *testing.T, st solver.SearchStats) {
				if len(st.Levels) != 0 {
					t.Errorf("a search cancelled before its first node has %d levels", len(st.Levels))
				}
			}},
		{"deep", func() solver.Result { return solver.Enumerate(context.Background(), ticks.Problem()) },
			func(t *testing.T, st solver.SearchStats) {
				// Deeper than the 16 depths whose level names are
				// formatted once.
				if len(st.Levels) <= 20 {
					t.Errorf("depth-20 ticks search has %d levels, want more than 20", len(st.Levels))
				}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := c.run().Stats
			c.want(t, st)
			got, want := st.DeterministicReport(), st.Report().Deterministic()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("DeterministicReport diverged:\n got %+v\nwant %+v", got, want)
			}
			gotJS, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			wantJS, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJS, wantJS) {
				t.Errorf("DeterministicReport JSON diverged:\n got %s\nwant %s", gotJS, wantJS)
			}
		})
	}
}

// TestSolutionKeysMatchString: on every shipped spec, SolutionKeys,
// which renders through one reused buffer, equals the sorted String()s
// of the solutions, so the spine walk keeps each trace's event order.
func TestSolutionKeysMatchString(t *testing.T) {
	var specs []string
	for _, pattern := range []string{"*.eq", "generated/*.eq"} {
		m, err := filepath.Glob(filepath.Join("..", "..", "specs", pattern))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, m...)
	}
	if len(specs) == 0 {
		t.Fatal("no shipped specs found")
	}
	for _, path := range specs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := eqlang.CompileSource(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		res := solver.Enumerate(context.Background(), prog.Problem())
		want := make([]string, res.Solutions.Len())
		for i, s := range res.Solutions.Traces() {
			want[i] = s.String()
		}
		sort.Strings(want)
		if got := res.SolutionKeys(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: SolutionKeys = %q, want %q", path, got, want)
		}
	}
}
