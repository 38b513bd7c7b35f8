package main

import (
	"context"
	"net/http"
	"time"

	"smoothproc/internal/descvm"
	"smoothproc/internal/eqlang"
	"smoothproc/internal/session"
	"smoothproc/internal/solver"
	"smoothproc/internal/specplan"
	"smoothproc/internal/specvet"
	"smoothproc/internal/store"
)

// metricDef names a reported metric, its unit, and which way is better:
// "lower" or "higher".
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run, in output order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "req/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"allocs_per_req", "objects", "lower"},
	{"heap_peak_mb", "MiB", "lower"},
}

// perLayerDefs are the metrics of a traced run, named by module. A layer
// that does no work in a workload reads 0.
var perLayerDefs = []metricDef{
	{"service.handler_ms", "ms", "lower"},
	{"service.outside_job_ms", "ms", "lower"},
	{"service.wire_ms", "ms", "lower"},
	{"service.response_bytes", "bytes", "lower"},
	{"service.admit_ms.p50", "ms", "lower"},
	{"service.admit_ms.p90", "ms", "lower"},
	{"service.queue_ms.p50", "ms", "lower"},
	{"service.queue_ms.p90", "ms", "lower"},
	{"service.run_ms.p50", "ms", "lower"},
	{"service.run_ms.p90", "ms", "lower"},
	{"service.rejected_share", "ratio", "lower"},
	{"service.spec_cache_hit_ratio", "ratio", "higher"},
	{"service.result_cache_hit_ratio", "ratio", "higher"},
	{"eqlang.compile_us", "us", "lower"},
	{"specvet.vet_us", "us", "lower"},
	{"specplan.analyze_us", "us", "lower"},
	{"specplan.nodes_over_min", "ratio", "lower"},
	{"descvm.compile_us", "us", "lower"},
	{"descvm.instrs", "count", "lower"},
	{"solver.nodes", "nodes", "lower"},
	{"solver.ns_per_node", "ns/node", "lower"},
	{"solver.edges_per_node", "ratio", "lower"},
	{"solver.prune_ratio", "ratio", "higher"},
	{"solver.thm1_auto_share", "ratio", "higher"},
	{"solver.steals", "count/req", "lower"},
	{"solver.idle_waits", "count/req", "lower"},
	{"solver.cold_ms", "ms", "lower"},
	{"solver.resume_ms", "ms", "lower"},
	{"solver.checkpoint_bytes", "bytes", "lower"},
	{"desc.memo_hit_ratio", "ratio", "higher"},
	{"desc.applies_per_node", "ratio", "lower"},
	{"desc.eval_share", "ratio", "lower"},
	{"session.encode_ms", "ms", "lower"},
	{"session.resumed", "count/req", "higher"},
	{"session.replayed", "count/req", "higher"},
	{"session.restored", "count/req", "higher"},
	{"store.put_us.spec", "us", "lower"},
	{"store.put_us.result", "us", "lower"},
	{"store.put_us.checkpoint", "us", "lower"},
	{"store.put_us.session", "us", "lower"},
	{"store.get_us.spec", "us", "lower"},
	{"store.get_us.result", "us", "lower"},
	{"store.get_us.checkpoint", "us", "lower"},
	{"store.get_us.session", "us", "lower"},
	{"store.bytes_written_per_req", "bytes/req", "lower"},
	{"store.puts_per_req", "count/req", "lower"},
	{"runtime.gc_cycles_per_req", "count/req", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
	{"bench.unattributed_spans", "count", "lower"},
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// layerInput is what the traced passes of a run produced.
type layerInput struct {
	in       *Inputs
	outcomes []outcome
	spans    []span
	server   map[string]int64 // /metrics deltas summed over passes
	gcCycles float64
	missing  int // spans without a trace id after attribution
	compiled bool
}

// searched reports whether an outcome ran a search of its own, as
// opposed to answering from the result cache or a session replay.
func searched(o *outcome) bool {
	if o.err != nil || o.result == nil || o.result.Cached {
		return false
	}
	return o.sessOutcome == "" || o.sessOutcome == "cold" || o.sessOutcome == "resumed"
}

// perLayer computes every per-layer metric from a run's traced passes.
func perLayer(li layerInput) map[string]float64 {
	m := map[string]float64{}
	n := float64(len(li.outcomes))

	handler := map[string]time.Duration{}
	putsByTrace := map[string]time.Duration{}
	storeDur := map[string][]float64{}
	var checkpointBytes []float64
	for _, sp := range li.spans {
		switch sp.Name {
		case "handler":
			handler[sp.Trace] = sp.Dur
		case "store.put", "store.get":
			op := "put"
			if sp.Name == "store.get" {
				op = "get"
			} else {
				putsByTrace[sp.Trace] += sp.Dur
			}
			storeDur[op+"/"+sp.Kind] = append(storeDur[op+"/"+sp.Kind], us(sp.Dur))
			if op == "put" && sp.Kind == string(store.KindCheckpoint) {
				checkpointBytes = append(checkpointBytes, float64(sp.Bytes))
			}
		}
	}

	var handlerMs, outsideMs, wireMs, respBytes, overMin, nodes, nsPerNode, coldMs, resumeMs []float64
	jobMs := map[string][]float64{}
	var rejected, searches float64
	var visited, edges, pruned, thm1, hits, misses, applies float64
	for i := range li.outcomes {
		o := &li.outcomes[i]
		switch o.status {
		case http.StatusUnprocessableEntity, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rejected++
		}
		respBytes = append(respBytes, float64(o.bytes))
		h, ok := handler[o.traceID]
		if ok {
			handlerMs = append(handlerMs, ms(h))
			wireMs = append(wireMs, ms(o.latency()-h))
		}
		var inJob float64
		if o.job != nil {
			for _, js := range o.job.Spans {
				jobMs[js.Name] = append(jobMs[js.Name], js.Ms)
				inJob += js.Ms
			}
			if ok && o.req.Op == "solve" && o.result != nil && !o.result.Cached {
				outsideMs = append(outsideMs, ms(h)-inJob)
			}
		}
		if !searched(o) {
			continue
		}
		searches++
		s := &li.in.Specs[o.req.Spec]
		res := o.result
		nodes = append(nodes, float64(res.Nodes))
		if lo := s.plan.MinNodes(o.req.Depth); lo > 0 {
			overMin = append(overMin, float64(res.Nodes)/float64(lo))
		}
		if o.job != nil && res.Nodes > 0 {
			for _, js := range o.job.Spans {
				if js.Name == "run" {
					nsPerNode = append(nsPerNode, js.Ms*1e6/float64(res.Nodes))
				}
			}
		}
		switch o.sessOutcome {
		case "cold":
			coldMs = append(coldMs, res.ElapsedMs-ms(putsByTrace[o.traceID]))
		case "resumed":
			resumeMs = append(resumeMs, res.ElapsedMs-ms(putsByTrace[o.traceID]))
		}
		get := func(sec, item string) float64 {
			v, _ := res.Stats.Get(sec, item)
			return float64(v)
		}
		visited += get("search", "nodes visited")
		edges += get("pruning", "edges checked")
		pruned += get("pruning", "subtrees pruned")
		thm1 += get("pruning", "thm1 auto edges")
		hits += get("memo", "cache hits")
		misses += get("memo", "cache misses")
		applies += get("memo", "f applications") + get("memo", "g applications")
	}

	m["service.handler_ms"] = median(handlerMs)
	m["service.outside_job_ms"] = median(outsideMs)
	m["service.wire_ms"] = median(wireMs)
	m["service.response_bytes"] = median(respBytes)
	for _, name := range []string{"admit", "queue", "run"} {
		m["service."+name+"_ms.p50"] = quantile(jobMs[name], 0.5)
		m["service."+name+"_ms.p90"] = quantile(jobMs[name], 0.9)
	}
	m["service.rejected_share"] = ratio(rejected, n)
	sv := func(k string) float64 { return float64(li.server[k]) }
	m["service.spec_cache_hit_ratio"] = ratio(sv("cache/spec hits"), sv("cache/spec hits")+sv("cache/spec misses"))
	m["service.result_cache_hit_ratio"] = ratio(sv("cache/result hits"), sv("cache/result hits")+sv("cache/result misses"))
	m["specplan.nodes_over_min"] = median(overMin)
	m["solver.nodes"] = median(nodes)
	m["solver.ns_per_node"] = median(nsPerNode)
	m["solver.edges_per_node"] = ratio(edges, visited)
	m["solver.prune_ratio"] = ratio(pruned, edges)
	m["solver.thm1_auto_share"] = ratio(thm1, edges)
	m["solver.steals"] = ratio(sv("search/work steals total"), searches)
	m["solver.idle_waits"] = ratio(sv("search/idle waits total"), searches)
	m["solver.cold_ms"] = median(coldMs)
	m["solver.resume_ms"] = median(resumeMs)
	m["solver.checkpoint_bytes"] = median(checkpointBytes)
	m["desc.memo_hit_ratio"] = ratio(hits, hits+misses)
	m["desc.applies_per_node"] = ratio(applies, visited)
	m["session.resumed"] = ratio(sv("sessions/resumed"), n)
	m["session.replayed"] = ratio(sv("sessions/replayed"), n)
	m["session.restored"] = ratio(sv("sessions/restored from store"), n)
	var bytesIn, puts float64
	for _, k := range store.Kinds() {
		m["store.put_us."+string(k)] = median(storeDur["put/"+string(k)])
		m["store.get_us."+string(k)] = median(storeDur["get/"+string(k)])
		bytesIn += sv("store/" + string(k) + " bytes in")
		puts += sv("store/" + string(k) + " puts")
	}
	m["store.bytes_written_per_req"] = ratio(bytesIn, n)
	m["store.puts_per_req"] = ratio(puts, n)
	m["runtime.gc_cycles_per_req"] = ratio(li.gcCycles, n)
	m["bench.unattributed_spans"] = float64(li.missing)
	for k, v := range directLayers(li) {
		m[k] = v
	}
	return m
}

// directSamples caps how many distinct specs the direct layer timings
// visit, so a run's tail stays short.
const directSamples = 48

// directLayers times each layer's public entry points on the specs the
// workload sent: the compile pipeline on each distinct source, the
// search's evaluation share on each distinct (spec, depth, workers)
// solve, and session checkpoint encoding on session-deepen's legs.
func directLayers(li layerInput) map[string]float64 {
	ctx := context.Background()
	var compileUs, vetUs, planUs, vmUs, instrs []float64
	seen := map[int]bool{}
	type solveKey struct{ spec, depth, workers int }
	solves := map[solveKey]bool{}
	var solveOrder []solveKey
	for i := range li.outcomes {
		o := &li.outcomes[i]
		if !seen[o.req.Spec] && len(seen) < directSamples {
			seen[o.req.Spec] = true
			src := li.in.Specs[o.req.Spec].Source
			t := time.Now()
			prog, err := eqlang.CompileSource(src)
			compileUs = append(compileUs, us(time.Since(t)))
			if err != nil {
				continue
			}
			t = time.Now()
			specvet.Vet(src)
			vetUs = append(vetUs, us(time.Since(t)))
			t = time.Now()
			specplan.Analyze(prog.System, prog.Alphabet, prog.Depth)
			planUs = append(planUs, us(time.Since(t)))
			if fresh, err := eqlang.CompileSource(src); err == nil {
				d := fresh.Problem().D
				t = time.Now()
				pf, okf := descvm.Compile(d.F)
				pg, okg := descvm.Compile(d.G)
				if okf && okg && descvm.Verify(pf) == nil && descvm.Verify(pg) == nil {
					vmUs = append(vmUs, us(time.Since(t)))
					instrs = append(instrs, float64(pf.NumInstrs()+pg.NumInstrs()))
				}
			}
		}
		if searched(o) && o.job != nil {
			k := solveKey{o.req.Spec, o.job.Params.Depth, o.job.Params.Workers}
			if !solves[k] && len(solveOrder) < directSamples {
				solves[k] = true
				solveOrder = append(solveOrder, k)
			}
		}
	}
	var evalNs, elapsedNs float64
	for _, k := range solveOrder {
		p := li.in.Specs[k.spec].prog.Problem()
		p.MaxDepth, p.MaxNodes, p.Compiled = k.depth, 500_000, li.compiled
		var res solver.Result
		if k.workers > 1 {
			res = solver.EnumerateParallel(ctx, p, k.workers)
		} else {
			res = solver.Enumerate(ctx, p)
		}
		evalNs += float64(res.Stats.Eval.FNanos + res.Stats.Eval.GNanos)
		elapsedNs += float64(res.Stats.Elapsed)
	}

	// Replay each session's legs (created at d, resumed to d+1 and d+2)
	// and time the checkpoint encode after each.
	var encodeMs []float64
	done := map[int]bool{}
	for _, o := range li.outcomes {
		if o.req.Op != "create" || done[o.req.Spec] || len(done) == directSamples {
			continue
		}
		done[o.req.Spec] = true
		s := &li.in.Specs[o.req.Spec]
		p := s.prog.Problem()
		p.CollectVisited, p.Compiled = false, li.compiled
		sess := session.New(s.Hash, p, s.prog.System)
		for d := o.req.Depth; d <= o.req.Depth+2; d++ {
			if _, _, err := sess.Solve(ctx, session.Options{Depth: d, MaxNodes: 500_000}); err != nil {
				break
			}
			t := time.Now()
			if _, err := sess.Encode(); err == nil {
				encodeMs = append(encodeMs, ms(time.Since(t)))
			}
		}
	}
	return map[string]float64{
		"eqlang.compile_us":   median(compileUs),
		"specvet.vet_us":      median(vetUs),
		"specplan.analyze_us": median(planUs),
		"descvm.compile_us":   median(vmUs),
		"descvm.instrs":       median(instrs),
		"desc.eval_share":     ratio(evalNs, elapsedNs),
		"session.encode_ms":   median(encodeMs),
	}
}
