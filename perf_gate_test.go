// Allocation/time regression gate. The CI bench-smoke job runs this with
// SMOOTHPROC_BENCH_GATE=1: each workload below is measured with
// testing.Benchmark (best of three) and compared against the perf
// section of BENCH_solver.json and against BENCH_trace.json; a >10%
// regression in time/op or allocs/op fails the build. Without the env
// var the gate skips — timing on developer machines is not a signal.
//
// Regenerate the baselines on a quiet machine with:
//
//	SMOOTHPROC_BENCH_GATE=1 go test -run TestPerfGate -update .
package smoothproc_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/netgen"
	"smoothproc/internal/solver"
	"smoothproc/internal/store"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

const traceBaselineFile = "BENCH_trace.json"
const storeBaselineFile = "BENCH_store.json"

// pr5InterpretedKahnNs is the recorded interpreted time/op for
// kahn-buffer.eq/enumerate when the bytecode VM landed (the PR 5
// baseline). The acceptance bar for the compiled path is fixed against
// this constant, not against the rolling baseline file: descvm must
// keep kahn-buffer enumeration at least 2x faster than the interpreter
// it replaced, forever, or the gate fails.
const pr5InterpretedKahnNs = 113345

// perfEntry is one workload's recorded cost.
type perfEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// measure runs one workload best-of-three.
func measure(name string, bench func(b *testing.B)) perfEntry {
	best := testing.Benchmark(bench)
	for i := 0; i < 2; i++ {
		r := testing.Benchmark(bench)
		if r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return perfEntry{
		Name:        name,
		NsPerOp:     float64(best.NsPerOp()),
		AllocsPerOp: best.AllocsPerOp(),
		BytesPerOp:  best.AllocedBytesPerOp(),
	}
}

// solverWorkloads are the enumerate benchmarks the gate tracks — the
// two specs with the deepest trees among the shipped examples, each
// interpreted and compiled (the descvm acceptance workloads). Every leg
// but enumerate runs on bytecode, the default.
func solverWorkloads(t *testing.T) map[string]func(b *testing.B) {
	t.Helper()
	out := map[string]func(b *testing.B){}
	for _, spec := range []string{"kahn-buffer.eq", "fig4-brock-ackermann.eq"} {
		src, err := os.ReadFile(filepath.Join("specs", spec))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := eqlang.CompileSource(string(src))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		// enumerate is the interpreter leg: bytecode is the default, so
		// the problem opts out explicitly to keep measuring what its
		// baseline recorded.
		out[spec+"/enumerate"] = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := prog.Problem()
				p.Compiled = false
				res := solver.Enumerate(context.Background(), p)
				if len(res.Solutions) == 0 && len(res.Frontier) == 0 {
					b.Fatal("search found nothing")
				}
			}
		}
		out[spec+"/enumerate-compiled"] = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := prog.Problem()
				p.Compiled = true
				res := solver.Enumerate(context.Background(), p)
				if len(res.Solutions) == 0 && len(res.Frontier) == 0 {
					b.Fatal("search found nothing")
				}
				if !res.Stats.CompiledEval {
					b.Fatal("compiled workload fell back to the interpreter")
				}
			}
		}
		if spec != "kahn-buffer.eq" {
			continue
		}
		// resume-deepen is the incremental-solve acceptance workload: the
		// capture at the spec's depth happens off the clock, the timed work
		// is the Final resume two levels deeper. Against enumerate-d6 (the
		// same search run cold) it shows what the retained frontier saves.
		out[spec+"/resume-deepen"] = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				half := prog.Problem()
				_, cp := solver.EnumerateCapture(context.Background(), half)
				b.StartTimer()
				res, err := cp.Resume(context.Background(), solver.ResumeOpts{
					MaxDepth: half.MaxDepth + 2,
					Final:    true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Solutions) == 0 {
					b.Fatal("search found nothing")
				}
			}
		}
		out[spec+"/enumerate-d6"] = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := prog.Problem()
				p.MaxDepth += 2
				res := solver.Enumerate(context.Background(), p)
				if len(res.Solutions) == 0 {
					b.Fatal("search found nothing")
				}
			}
		}
		// stream-first-solution is the streaming acceptance workload:
		// time-to-first-solution on a deep search, the latency a
		// /v1/solve/stream client sees before its first "solution" event.
		// The search is cancelled at the first solution callback.
		out[spec+"/stream-first-solution"] = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				p := prog.Problem()
				p.MaxDepth = 8
				first := 0
				p.OnSolution = func(trace.Trace) {
					if first == 0 {
						cancel()
					}
					first++
				}
				res := solver.Enumerate(ctx, p)
				cancel()
				if first == 0 {
					b.Fatal("search cancelled before any solution")
				}
				if !res.Canceled {
					b.Fatal("first-solution cancel did not stop the search")
				}
			}
		}
	}
	// corpus/generate-check-tier times the generator front end: emitting
	// and compiling one instance of every family (no search). Guards the
	// cost of the per-PR CI corpus job's generation half.
	out["corpus/generate-check-tier"] = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ins, err := netgen.Corpus("all", 0, 6)
			if err != nil {
				b.Fatal(err)
			}
			if len(ins) != 6 {
				b.Fatalf("generated %d instances, want 6", len(ins))
			}
		}
	}
	// corpus/stress-solve is the stress-tier representative scaled to
	// benchmark size: the seed-3 buffer farm calibrated to a ~10k-node
	// planner target (one depth level below the real 1e5 tier, ~20k
	// actual nodes). Tracks the stress tier's per-node search cost
	// without the full 1e5-node runtime.
	out["corpus/stress-solve"] = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, err := netgen.Stress(3, netgen.StressConfig{TargetNodes: 10_000})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res := s.Solve(context.Background())
			if uint64(res.Nodes) < s.PredictedMin {
				b.Fatalf("solved %d nodes, below planner floor %d", res.Nodes, s.PredictedMin)
			}
		}
	}
	return out
}

// traceWorkloads are the core-op microbenchmarks at three depths:
// Append (O(1) extension), Take at half depth (spine walk, no copy) and
// Key (O(1) from the stored hash).
func traceWorkloads() map[string]func(b *testing.B) {
	out := map[string]func(b *testing.B){}
	for _, depth := range []int{10, 100, 1000} {
		base := trace.Empty
		for i := 0; i < depth; i++ {
			base = base.Append(trace.E("b", value.Int(int64(i%7))))
		}
		e := trace.E("c", value.Int(1))
		half := depth / 2
		out[benchName("append", depth)] = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = base.Append(e)
			}
		}
		out[benchName("take", depth)] = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = base.Take(half)
			}
		}
		out[benchName("key", depth)] = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = base.Key()
			}
		}
	}
	return out
}

func benchName(op string, depth int) string {
	return op + "/d" + value.Int(int64(depth)).String()
}

// storeWorkloads cover the durable-state hot paths the -data-dir
// refactor added: spine codec round trips (what every checkpoint
// persist/restore pays), full checkpoint encode/decode on a real
// captured search, and content-addressed put/get on the memory backend
// (the read-through cache's miss path minus the disk).
func storeWorkloads(t *testing.T) map[string]func(b *testing.B) {
	t.Helper()
	out := map[string]func(b *testing.B){}

	ts := make([]trace.Trace, 0, 64)
	for i := 0; i < 64; i++ {
		tr := trace.Empty
		for d := 0; d <= i%16; d++ {
			tr = tr.Append(trace.E("b", value.Int(int64((i+d)%7))))
		}
		ts = append(ts, tr)
	}
	spine := trace.EncodeTraces(ts)
	out["codec/traces-encode"] = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = trace.EncodeTraces(ts)
		}
	}
	out["codec/traces-decode"] = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.DecodeTraces(spine); err != nil {
				b.Fatal(err)
			}
		}
	}

	src, err := os.ReadFile(filepath.Join("specs", "kahn-buffer.eq"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := eqlang.CompileSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	_, cp := solver.EnumerateCapture(context.Background(), prog.Problem())
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out["codec/checkpoint-encode"] = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cp.Encode(); err != nil {
				b.Fatal(err)
			}
		}
	}
	out["codec/checkpoint-decode"] = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solver.DecodeCheckpoint(blob, prog.Problem()); err != nil {
				b.Fatal(err)
			}
		}
	}

	key := store.KeyOf(blob)
	out["store/memory-put"] = func(b *testing.B) {
		b.ReportAllocs()
		s := store.NewMemory()
		defer s.Close()
		for i := 0; i < b.N; i++ {
			if err := s.Put(context.Background(), store.KindCheckpoint, key, blob); err != nil {
				b.Fatal(err)
			}
		}
	}
	out["store/memory-get"] = func(b *testing.B) {
		b.ReportAllocs()
		s := store.NewMemory()
		defer s.Close()
		if err := s.Put(context.Background(), store.KindCheckpoint, key, blob); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := s.Get(context.Background(), store.KindCheckpoint, key); err != nil {
				b.Fatal(err)
			}
		}
	}
	return out
}

// gate compares one measured workload against its baseline.
func gate(t *testing.T, got perfEntry, want map[string]perfEntry) {
	t.Helper()
	w, ok := want[got.Name]
	if !ok {
		t.Errorf("%s: no baseline recorded — regenerate with -update", got.Name)
		return
	}
	if float64(got.AllocsPerOp) > float64(w.AllocsPerOp)*1.10 {
		t.Errorf("%s: allocs/op regressed: %d, baseline %d (>10%%)",
			got.Name, got.AllocsPerOp, w.AllocsPerOp)
	}
	if got.NsPerOp > w.NsPerOp*1.10 {
		t.Errorf("%s: time/op regressed: %.0fns, baseline %.0fns (>10%%)",
			got.Name, got.NsPerOp, w.NsPerOp)
	}
	t.Logf("%s: %.0fns/op %d allocs/op %dB/op (baseline %.0fns, %d allocs)",
		got.Name, got.NsPerOp, got.AllocsPerOp, got.BytesPerOp, w.NsPerOp, w.AllocsPerOp)
}

func TestPerfGate(t *testing.T) {
	update := *updateBaseline || os.Getenv("SMOOTHPROC_UPDATE_BASELINE") != ""
	if os.Getenv("SMOOTHPROC_BENCH_GATE") == "" && !update {
		t.Skip("set SMOOTHPROC_BENCH_GATE=1 (CI bench-smoke) to run the perf regression gate")
	}
	var solverGot, traceGot, storeGot []perfEntry
	sw := solverWorkloads(t)
	for _, name := range []string{
		"kahn-buffer.eq/enumerate",
		"kahn-buffer.eq/enumerate-compiled",
		"fig4-brock-ackermann.eq/enumerate",
		"fig4-brock-ackermann.eq/enumerate-compiled",
		"kahn-buffer.eq/resume-deepen",
		"kahn-buffer.eq/enumerate-d6",
		"kahn-buffer.eq/stream-first-solution",
		"corpus/generate-check-tier",
		"corpus/stress-solve",
	} {
		solverGot = append(solverGot, measure(name, sw[name]))
	}
	tw := traceWorkloads()
	for _, op := range []string{"append", "take", "key"} {
		for _, depth := range []int{10, 100, 1000} {
			name := benchName(op, depth)
			traceGot = append(traceGot, measure(name, tw[name]))
		}
	}
	stw := storeWorkloads(t)
	for _, name := range []string{
		"codec/traces-encode",
		"codec/traces-decode",
		"codec/checkpoint-encode",
		"codec/checkpoint-decode",
		"store/memory-put",
		"store/memory-get",
	} {
		storeGot = append(storeGot, measure(name, stw[name]))
	}

	// The compiled-path acceptance bar is absolute, checked on every
	// gated run (update included — a baseline that fails acceptance must
	// not be recordable): bytecode evaluation has to hold kahn-buffer
	// enumeration at >=2x over the interpreted time recorded when the VM
	// shipped.
	for _, g := range solverGot {
		if g.Name != "kahn-buffer.eq/enumerate-compiled" {
			continue
		}
		if limit := float64(pr5InterpretedKahnNs) / 2; g.NsPerOp > limit {
			t.Errorf("%s: %.0fns/op exceeds the 2x acceptance bar (%.0fns, half of the %dns interpreted PR 5 baseline)",
				g.Name, g.NsPerOp, limit, pr5InterpretedKahnNs)
		} else {
			t.Logf("%s: %.0fns/op — %.2fx the %dns interpreted PR 5 baseline",
				g.Name, g.NsPerOp, float64(pr5InterpretedKahnNs)/g.NsPerOp, pr5InterpretedKahnNs)
		}
	}

	// The incremental-solve acceptance bar, also absolute: resuming a
	// depth-4 capture to depth 6 classifies only the new nodes, so it can
	// never cost more than the same depth-6 search run cold (5% noise
	// allowance). A resume slower than a cold solve means the retained
	// frontier stopped paying for itself.
	{
		byName := map[string]perfEntry{}
		for _, g := range solverGot {
			byName[g.Name] = g
		}
		resume, cold := byName["kahn-buffer.eq/resume-deepen"], byName["kahn-buffer.eq/enumerate-d6"]
		if resume.Name != "" && cold.Name != "" {
			if resume.NsPerOp > cold.NsPerOp*1.05 {
				t.Errorf("resume-deepen: %.0fns/op is slower than the %.0fns cold depth-6 solve — resuming must skip the classified prefix",
					resume.NsPerOp, cold.NsPerOp)
			} else {
				t.Logf("resume-deepen: %.0fns/op vs %.0fns cold (%.2fx)",
					resume.NsPerOp, cold.NsPerOp, cold.NsPerOp/resume.NsPerOp)
			}
		}
	}

	// SMOOTHPROC_BENCH_OUT captures every measurement as a flat JSON
	// array; the CI perf-gate job feeds it to cmd/benchdelta to render
	// the old-vs-new table in the job summary.
	if out := os.Getenv("SMOOTHPROC_BENCH_OUT"); out != "" {
		all := append(append(append([]perfEntry{}, solverGot...), traceGot...), storeGot...)
		js, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if update {
		d, err := loadBaselineData()
		if err != nil {
			t.Fatal(err)
		}
		d.Perf = solverGot
		if err := saveBaselineData(d); err != nil {
			t.Fatal(err)
		}
		js, err := json.MarshalIndent(traceGot, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceBaselineFile, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		js, err = json.MarshalIndent(storeGot, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(storeBaselineFile, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("perf baselines regenerated (%d solver, %d trace, %d store workloads)", len(solverGot), len(traceGot), len(storeGot))
		return
	}

	d, err := loadBaselineData()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]perfEntry{}
	for _, e := range d.Perf {
		want[e.Name] = e
	}
	js, err := os.ReadFile(traceBaselineFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var traceWant []perfEntry
	if err := json.Unmarshal(js, &traceWant); err != nil {
		t.Fatalf("corrupt %s: %v", traceBaselineFile, err)
	}
	for _, e := range traceWant {
		want[e.Name] = e
	}
	js, err = os.ReadFile(storeBaselineFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var storeWant []perfEntry
	if err := json.Unmarshal(js, &storeWant); err != nil {
		t.Fatalf("corrupt %s: %v", storeBaselineFile, err)
	}
	for _, e := range storeWant {
		want[e.Name] = e
	}
	for _, g := range append(append(solverGot, traceGot...), storeGot...) {
		gate(t, g, want)
	}
}
