package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"smoothproc/internal/service"
	"smoothproc/internal/solver"
)

// The tests run from perfbench/, one level below the repository root.
const testRoot = ".."

func TestRequestListsAreByteStablePerSeed(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			encode := func(seed int64) []byte {
				in, err := generate(w, testRoot, seed)
				if err != nil {
					t.Fatal(err)
				}
				if in.Requests() == 0 {
					t.Fatal("no requests")
				}
				js, err := json.Marshal(in)
				if err != nil {
					t.Fatal(err)
				}
				return js
			}
			a, b := encode(7), encode(7)
			if !bytes.Equal(a, b) {
				t.Fatal("two generations from seed 7 differ")
			}
			if bytes.Equal(a, encode(8)) {
				t.Fatal("seeds 7 and 8 generate the same requests")
			}
		})
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		q    float64
		n    int
		want bool
	}{
		{0.5, 19, false}, {0.5, 20, true},
		{0.9, 99, false}, {0.9, 100, true},
		{0.99, 999, false}, {0.99, 1000, true},
	} {
		if _, ok := percentile(seq(c.n), c.q); ok != c.want {
			t.Errorf("percentile(%d samples, %v) reported = %v, want %v", c.n, c.q, ok, c.want)
		}
	}
	if v, _ := percentile(seq(101), 0.5); v != 51 {
		t.Errorf("median of 1..101 = %v, want 51", v)
	}
}

func TestWallClockFiguresComeFromTheQuietPasses(t *testing.T) {
	pass := func(wall time.Duration, latencyMs float64) passStats {
		p := passStats{setup: wall / 10, wall: wall, requests: 100, nodes: 1000, allocs: 5000, heapPeak: 1 << 20}
		for range p.requests {
			p.latencyMs = append(p.latencyMs, latencyMs)
		}
		return p
	}
	// Three quiet passes among nine the host slowed down.
	quiet, slow := pass(time.Second, 10), pass(2*time.Second, 20)
	var passes []passStats
	for i := range 12 {
		if i%4 == 1 {
			passes = append(passes, quiet)
		} else {
			passes = append(passes, slow)
		}
	}
	s := summarize(measured{passes: passes})
	if s.quiet != 3 {
		t.Fatalf("%d quiet passes of 12, want 3", s.quiet)
	}
	for name, want := range map[string]float64{
		"setup_s": 0.1, "throughput_rps": 100, "nodes_per_s": 1000,
		"latency_p50_ms": 10, "latency_p90_ms": 10, "allocs_per_req": 50, "heap_peak_mb": 1,
	} {
		if got := s.values[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// reference solves s at depth directly, as a correct wire answer.
func reference(t *testing.T, s *Spec, depth int) *service.SolveResult {
	t.Helper()
	p := s.prog.Problem()
	p.MaxDepth = depth
	res := solver.Enumerate(context.Background(), p)
	return &service.SolveResult{Solutions: res.SolutionKeys(), Nodes: res.Nodes}
}

func TestCheckerRejectsTamperedAnswers(t *testing.T) {
	specs, err := shippedSpecs(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	var kahn *Spec
	for i := range specs {
		if specs[i].Name == "specs/kahn-buffer.eq" {
			kahn = &specs[i]
		}
	}
	if kahn == nil {
		t.Fatal("specs/kahn-buffer.eq not found")
	}
	d := kahn.prog.Depth
	good := reference(t, kahn, d)
	if err := newChecker().check(kahn, d, good); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}

	dropped := *good
	dropped.Solutions = good.Solutions[1:]
	altered := *good
	altered.Solutions = append([]string{"⟨(e,0)⟩"}, good.Solutions[1:]...)
	over := *good
	over.Nodes = int(kahn.plan.Nodes(d)) + 1
	under := *good
	under.Nodes = int(kahn.plan.MinNodes(d)) - 1
	for name, bad := range map[string]*service.SolveResult{
		"dropped solution": &dropped, "altered solution": &altered,
		"nodes over the bracket": &over, "nodes under the bracket": &under,
	} {
		if err := newChecker().check(kahn, d, bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// Away from the spec's own depth there are no expect statements: a
	// later answer must equal the first one byte for byte.
	deeper := reference(t, kahn, d+1)
	chk := newChecker()
	if err := chk.check(kahn, d+1, deeper); err != nil {
		t.Fatalf("correct deeper answer rejected: %v", err)
	}
	swapped := *deeper
	swapped.Solutions = append([]string{"⟨(a,0)⟩"}, deeper.Solutions[1:]...)
	if err := chk.check(kahn, d+1, &swapped); err == nil {
		t.Error("answer differing from the first one accepted")
	}
}

func TestBenchmarkJSONNamesTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile(testRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range want {
			if g, w := got[i], want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s %s-is-better, benchmark %s %s %s-is-better",
					what, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayerDefs)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
