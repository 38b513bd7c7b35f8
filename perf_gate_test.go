// Allocation/time regression gate. The CI bench-smoke job runs this with
// SMOOTHPROC_BENCH_GATE=1: each workload below is measured with
// testing.Benchmark (best of three) and compared against the perf
// section of BENCH_solver.json and against BENCH_trace.json and
// BENCH_store.json; a >10% regression in allocs/op, or in time/op
// outside the legs that only same-run ratios time (ratioTimed),
// fails the build, and so does a same-run ratio over its bar (compiled
// kahn-buffer, resume vs cold, a no-cache solve through smoothd's
// handler vs its search, checkpoint encode and decode vs capture).
// Without the env var the gate skips — timing on developer machines is
// not a signal.
//
// Regenerate the baselines on a quiet machine with:
//
//	SMOOTHPROC_BENCH_GATE=1 go test -run TestPerfGate -update .
package smoothproc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/netgen"
	"smoothproc/internal/service"
	"smoothproc/internal/solver"
	"smoothproc/internal/specvet"
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

// measure runs the named workloads best-of-three each, in three rounds
// that visit every workload once, so that the same-run ratios between
// them compare runs made under the same host load.
func measure(names []string, w map[string]func(b *testing.B)) []perfEntry {
	best := make([]testing.BenchmarkResult, len(names))
	for round := 0; round < 3; round++ {
		for i, name := range names {
			if r := testing.Benchmark(w[name]); round == 0 || r.NsPerOp() < best[i].NsPerOp() {
				best[i] = r
			}
		}
	}
	out := make([]perfEntry, len(names))
	for i, r := range best {
		out[i] = perfEntry{
			Name:        names[i],
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	return out
}

// solverWorkloads are the enumerate benchmarks the gate tracks — the
// two specs with the deepest trees among the shipped examples, each
// interpreted and compiled (the descvm acceptance workloads). Every leg
// but enumerate runs on bytecode, as every side that lowers does.
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
		// enumerate is the interpreter leg: both sides are made opaque,
		// so the search interprets them as it would sides that do not
		// lower.
		out[spec+"/enumerate"] = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := solver.Enumerate(context.Background(), interpreted(prog.Problem()))
				if len(res.Solutions) == 0 && len(res.Frontier) == 0 {
					b.Fatal("search found nothing")
				}
				if res.Stats.CompiledEval {
					b.Fatal("interpreter workload ran on bytecode")
				}
			}
		}
		out[spec+"/enumerate-compiled"] = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := solver.Enumerate(context.Background(), prog.Problem())
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
	// service/solve-nocache is the kahn-buffer solve above served
	// through smoothd's handler in process: request decode, admission,
	// the scheduler's queue and worker, the search, and the JSON
	// response. Each run starts its own server, so the jobs it retains
	// burden no other workload, and uploads the spec off the clock. The
	// request body is encoded once, and every response lands in one
	// reused buffer, as it would in net/http's pooled connection writer.
	// Measured in the same rounds as enumerate-compiled, it shows what a
	// small solve costs outside its search.
	kahnSrc, err := os.ReadFile(filepath.Join("specs", "kahn-buffer.eq"))
	if err != nil {
		t.Fatal(err)
	}
	upload, err := json.Marshal(service.SpecRequest{Source: string(kahnSrc)})
	if err != nil {
		t.Fatal(err)
	}
	out["service/solve-nocache"] = func(b *testing.B) {
		srv, err := service.New(service.Config{})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Shutdown(context.Background())
		var resp bytes.Buffer
		post := func(path string, body []byte) *httptest.ResponseRecorder {
			req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			rec := httptest.NewRecorder()
			resp.Reset()
			rec.Body = &resp
			srv.Handler().ServeHTTP(rec, req)
			return rec
		}
		var info service.SpecInfo
		if rec := post("/v1/specs", upload); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &info) != nil {
			b.Fatalf("kahn-buffer upload: status %d: %s", rec.Code, rec.Body)
		}
		solveReq, err := json.Marshal(service.SolveRequest{SpecHash: info.Hash, NoCache: true, Wait: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec := post("/v1/solve", solveReq); rec.Code != http.StatusOK {
				b.Fatalf("no-cache solve: status %d: %s", rec.Code, rec.Body)
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
	// specvet/vet-check-tier times what a spec upload pays before any
	// search: specvet.Vet (compile, static plan and the declared-contract
	// probe) over the same six check-tier sources, generated off the
	// clock.
	vetSrcs, err := netgen.Corpus("all", 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	out["specvet/vet-check-tier"] = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, in := range vetSrcs {
				if r := specvet.Vet(in.Source); r.HasErrors() {
					b.Fatalf("%s: vet errors: %v", in.Name, r.Findings)
				}
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

// storeWorkloads cover the durable-state hot paths: a capture-mode
// solve of kahn-buffer at depth 8, and the checkpoint encode and decode
// of that capture, whose same-run ratios to the capture TestPerfGate
// bounds; and content-addressed put/get on the memory backend (the
// read-through cache's miss path minus the disk) of the checkpoint of
// kahn-buffer at its own depth.
func storeWorkloads(t *testing.T) map[string]func(b *testing.B) {
	t.Helper()
	out := map[string]func(b *testing.B){}

	src, err := os.ReadFile(filepath.Join("specs", "kahn-buffer.eq"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := eqlang.CompileSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Problem()
	p.MaxDepth = 8
	_, cp := solver.EnumerateCapture(context.Background(), p)
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Codec v6 writes a few bytes per tree node: the blob must stay under
	// a quarter of the 296,353 bytes codec v5 wrote for this capture.
	if len(blob) > 74_000 {
		t.Errorf("depth-8 kahn-buffer checkpoint is %d bytes, over the 74,000-byte bar", len(blob))
	}
	out["codec/checkpoint-capture"] = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res, _ := solver.EnumerateCapture(context.Background(), p); res.Nodes != cp.Nodes() {
				b.Fatalf("capture classified %d nodes, want %d", res.Nodes, cp.Nodes())
			}
		}
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

	_, cp4 := solver.EnumerateCapture(context.Background(), prog.Problem())
	blob4, err := cp4.Encode()
	if err != nil {
		t.Fatal(err)
	}
	key := store.KeyOf(blob4)
	out["store/memory-put"] = func(b *testing.B) {
		b.ReportAllocs()
		s := store.NewMemory()
		defer s.Close()
		for i := 0; i < b.N; i++ {
			if err := s.Put(context.Background(), store.KindCheckpoint, key, blob4); err != nil {
				b.Fatal(err)
			}
		}
	}
	out["store/memory-get"] = func(b *testing.B) {
		b.ReportAllocs()
		s := store.NewMemory()
		defer s.Close()
		if err := s.Put(context.Background(), store.KindCheckpoint, key, blob4); err != nil {
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

// ratioTimed names the workloads whose time/op only the same-run bars
// in TestPerfGate bound (the handler and codec bars): their baselines
// record allocs/op and bytes/op, and no time.
var ratioTimed = map[string]bool{
	"service/solve-nocache":    true,
	"codec/checkpoint-capture": true,
	"codec/checkpoint-encode":  true,
	"codec/checkpoint-decode":  true,
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
	if !ratioTimed[got.Name] && got.NsPerOp > w.NsPerOp*1.10 {
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
	solverGot := measure([]string{
		"kahn-buffer.eq/enumerate",
		"kahn-buffer.eq/enumerate-compiled",
		"service/solve-nocache",
		"fig4-brock-ackermann.eq/enumerate",
		"fig4-brock-ackermann.eq/enumerate-compiled",
		"kahn-buffer.eq/resume-deepen",
		"kahn-buffer.eq/enumerate-d6",
		"kahn-buffer.eq/stream-first-solution",
		"corpus/generate-check-tier",
		"specvet/vet-check-tier",
		"corpus/stress-solve",
	}, solverWorkloads(t))
	var traceNames []string
	for _, op := range []string{"append", "take", "key"} {
		for _, depth := range []int{10, 100, 1000} {
			traceNames = append(traceNames, benchName(op, depth))
		}
	}
	traceGot := measure(traceNames, traceWorkloads())
	storeGot := measure([]string{
		"codec/checkpoint-capture",
		"codec/checkpoint-encode",
		"codec/checkpoint-decode",
		"store/memory-put",
		"store/memory-get",
	}, storeWorkloads(t))

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

	solverByName := map[string]perfEntry{}
	for _, g := range solverGot {
		solverByName[g.Name] = g
	}

	// The incremental-solve acceptance bar, also absolute: resuming a
	// depth-4 capture to depth 6 classifies only the new nodes, so it can
	// never cost more than the same depth-6 search run cold (5% noise
	// allowance). A resume slower than a cold solve means the retained
	// frontier stopped paying for itself.
	{
		resume, cold := solverByName["kahn-buffer.eq/resume-deepen"], solverByName["kahn-buffer.eq/enumerate-d6"]
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

	// The handler bar, a same-run ratio: a no-cache kahn-buffer solve
	// through smoothd's handler may cost at most 2.5x the same search
	// run alone. ROADMAP item 9's target is 2x.
	{
		search, handler := solverByName["kahn-buffer.eq/enumerate-compiled"].NsPerOp, solverByName["service/solve-nocache"].NsPerOp
		if handler > 2.5*search {
			t.Errorf("service/solve-nocache: %.0fns/op is %.2fx the %.0fns search, over the 2.50x bar", handler, handler/search, search)
		} else {
			t.Logf("service/solve-nocache: %.0fns/op, %.2fx the %.0fns search (bar 2.50x)", handler, handler/search, search)
		}
	}

	// The checkpoint codec bar, a same-run ratio: encoding the depth-8
	// kahn-buffer capture may cost at most a quarter of the capture, and
	// decoding it at most half. Codec v6 writes the tree's shape records
	// and replays them, so both stay linear in the nodes.
	{
		byName := map[string]perfEntry{}
		for _, g := range storeGot {
			byName[g.Name] = g
		}
		capture := byName["codec/checkpoint-capture"].NsPerOp
		for _, bar := range []struct {
			name  string
			ratio float64
		}{{"codec/checkpoint-encode", 0.25}, {"codec/checkpoint-decode", 0.5}} {
			got := byName[bar.name].NsPerOp
			if got > bar.ratio*capture {
				t.Errorf("%s: %.0fns/op is %.2fx the %.0fns capture, over the %.2fx bar", bar.name, got, got/capture, capture, bar.ratio)
			} else {
				t.Logf("%s: %.0fns/op, %.2fx the %.0fns capture (bar %.2fx)", bar.name, got, got/capture, capture, bar.ratio)
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
