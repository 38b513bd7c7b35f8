// Command perfbench is smoothd's end-to-end benchmark. It starts the
// service in-process behind a real HTTP listener, drives one of its
// seeded closed-loop workloads, checks every answer, and prints the
// end-to-end metrics (-trace 0) or the per-layer metrics measured from
// outside the program (-trace 1). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload solve-mix --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Pass-count floors: one unmeasured warm-up pass, then measured passes
// until the quiet ones (see quietShare) number at least minQuiet, so
// set-up time is a median, and hold at least minRequests requests, so
// every workload has a p50.
const (
	minQuiet    = 3
	minRequests = 20
	// hardStop bounds a run however slow the machine: measuring stops
	// once this much time has gone, floors or not.
	hardStop = 150 * time.Second
)

// quietShare is the share of measured passes the wall-clock figures
// come from: the fastest quarter, by replay time. Every pass of a run
// replays the same requests, so they differ in time only by what else
// the machine does. On a shared host other tenants slow passes down for
// seconds at a time and never speed them up, so the faster passes are
// the ones that show the program's own speed.
const quietShare = 0.25

// quietCount is how many of n measured passes are quiet.
func quietCount(n int) int { return int(math.Ceil(float64(n) * quietShare)) }

// outDir holds span files, under the build directory run.sh keeps in
// the repository root.
const outDir = ".bench_build/perfbench"

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames()))
	seed := fl.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Float64("seconds", 10, "how long to measure")
	traceOn := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload %v, -seconds > 0, -trace 0|1\n", workloadNames())
		return 2
	}
	b := &bench{
		runner: runner{
			root: ".", workload: *workload, seed: *seed,
			chk: newChecker(), clock: time.Now(),
		},
		stdout: stdout,
	}
	budget := time.Duration(*seconds * float64(time.Second))
	err := fillProgramCache()
	if err == nil {
		err = b.generate()
	}
	switch {
	case err != nil:
	case *traceOn == 0:
		err = b.untraced(budget)
	default:
		err = b.traced(budget, filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed)))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

type bench struct {
	runner
	stdout io.Writer
	// generated is how long generating the request list took. It is
	// reported, but is not set-up time: setup_s is the server's set-up,
	// and the generation's cost depends on the seed.
	generated time.Duration
}

func (b *bench) generate() error {
	start := time.Now()
	in, err := generate(b.workload, b.root, b.seed)
	b.in, b.generated = in, time.Since(start)
	return err
}

// measured is what a run of passes left: every pass's summary, and the
// whole pass with its tracer only when traced.
type measured struct {
	warmup  *passStats
	passes  []passStats
	traced  []*passResult
	tracers []*tracer
}

// measure runs passes until budget has gone and the floors (minQuiet
// quiet passes holding floor requests) are met.
// With warm set, the first pass is a warm-up and is kept apart.
func (b *bench) measure(budget time.Duration, traced, warm bool, floor int) (measured, error) {
	var m measured
	ctx := context.Background()
	start := time.Now()
	for {
		var tr *tracer
		if traced {
			tr = &tracer{clock: b.clock}
		}
		p, err := b.pass(ctx, tr)
		if err != nil {
			return m, err
		}
		if warm && m.warmup == nil {
			m.warmup = &p.passStats
			start = time.Now()
			continue
		}
		m.passes = append(m.passes, p.passStats)
		if traced {
			m.traced, m.tracers = append(m.traced, p), append(m.tracers, tr)
		}
		el := time.Since(start)
		quiet := quietCount(len(m.passes))
		floors := quiet >= minQuiet && quiet*p.requests >= floor
		if (el >= budget && floors) || time.Since(b.clock) > hardStop {
			return m, nil
		}
	}
}

// summary is the end-to-end account of a set of passes.
type summary struct {
	values    map[string]float64
	omitted   map[string]string
	attempted int
	failed    int
	failures  []string
	passes    int
	quiet     int
	requests  int // measured requests
	// steal is the hypervisor's share of the machine's CPU time over the
	// measured passes; rps and heapPeaks are per measured pass, in order.
	steal     float64
	rps       []float64
	heapPeaks []float64
	// opP50 is the median latency of each request op, quiet passes.
	opP50 map[string]float64
}

// summarize takes the wall-clock figures (set-up, throughput, latency,
// nodes per second) from the quiet passes, and the others (allocations,
// heap) from every measured pass.
func summarize(m measured) summary {
	s := summary{values: map[string]float64{}, omitted: map[string]string{}, passes: len(m.passes)}
	all := m.passes
	if m.warmup != nil {
		all = append([]passStats{*m.warmup}, m.passes...)
	}
	for _, p := range all {
		s.attempted += p.requests
		s.failed += len(p.failures)
		s.failures = append(s.failures, p.failures...)
	}
	var steal, total float64
	var allocs []float64
	for _, p := range m.passes {
		s.requests += p.requests
		steal, total = steal+p.steal, total+p.total
		s.rps = append(s.rps, float64(p.requests)/p.wall.Seconds())
		allocs = append(allocs, p.allocs/float64(p.requests))
		s.heapPeaks = append(s.heapPeaks, p.heapPeak/(1<<20))
	}
	s.steal = ratio(steal, total)
	s.values["allocs_per_req"] = median(allocs)
	s.values["heap_peak_mb"] = median(s.heapPeaks)

	quiet := append([]passStats(nil), m.passes...)
	sort.SliceStable(quiet, func(i, j int) bool { return quiet[i].wall < quiet[j].wall })
	quiet = quiet[:quietCount(len(quiet))]
	s.quiet = len(quiet)
	var setup, rps, nps, lat, first []float64
	opMs := map[string][]float64{}
	for _, p := range quiet {
		for op, xs := range p.opMs {
			opMs[op] = append(opMs[op], xs...)
		}
		setup = append(setup, p.setup.Seconds())
		rps = append(rps, float64(p.requests)/p.wall.Seconds())
		nps = append(nps, float64(p.nodes)/p.wall.Seconds())
		lat = append(lat, p.latencyMs...)
		first = append(first, p.firstMs...)
	}
	s.opP50 = map[string]float64{}
	for op, xs := range opMs {
		s.opP50[op] = median(xs)
	}
	s.values["setup_s"] = median(setup)
	s.values["throughput_rps"] = median(rps)
	s.values["nodes_per_s"] = median(nps)
	for _, q := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.5}, {"latency_p90_ms", 0.9}, {"latency_p99_ms", 0.99}} {
		if v, ok := percentile(lat, q.q); ok {
			s.values[q.name] = v
		} else {
			s.omitted[q.name] = fmt.Sprintf("%d samples, fewer than %d beyond it", len(lat), minBeyond)
		}
	}
	if v, ok := percentile(first, 0.5); ok {
		s.values["first_solution_p50_ms"] = v
	} else if len(first) > 0 {
		s.omitted["first_solution_p50_ms"] = fmt.Sprintf("%d samples", len(first))
	}
	s.values["failed_share"] = ratio(float64(s.failed), float64(s.attempted))
	return s
}

// reportOnly are end-to-end metrics printed in the text report but not
// in the JSON line. Not every workload can produce p99, the first
// solution time or a failure share. latency_p90_ms sits on the few
// largest searches of the seed's draw, so it moves with the seed more
// than with the program. nodes_per_s is throughput_rps times the seed's
// fixed node count per request, and it drops when a change prunes nodes.
var reportOnly = []metricDef{
	{"latency_p90_ms", "ms", "lower"},
	{"nodes_per_s", "nodes/s", "higher"},
	{"latency_p99_ms", "ms", "lower"},
	{"first_solution_p50_ms", "ms", "lower"},
	{"failed_share", "ratio", "lower"},
}

func (b *bench) printSummary(label string, s summary) {
	fmt.Fprintf(b.stdout, "%s: %d measured passes (%d quiet), %d measured requests, %d attempted, %d failed\n",
		label, s.passes, s.quiet, s.requests, s.attempted, s.failed)
	for _, d := range append(append([]metricDef(nil), endToEnd...), reportOnly...) {
		if v, ok := s.values[d.name]; ok {
			fmt.Fprintf(b.stdout, "  %s %s %s\n", d.name, formatValue(v), d.unit)
		} else if why, ok := s.omitted[d.name]; ok {
			fmt.Fprintf(b.stdout, "  %s omitted (%s)\n", d.name, why)
		}
	}
	// The hypervisor's steal is context for comparing runs, not a
	// correction: the figures above are as measured.
	fmt.Fprintf(b.stdout, "  host steal %.1f%% of CPU time (throughput_rps on steal-free CPUs would read about %s)\n",
		100*s.steal, formatValue(ratio(s.values["throughput_rps"], 1-s.steal)))
	byPass := func(name string, xs []float64) {
		vs := make([]string, len(xs))
		for i, v := range xs {
			vs[i] = formatValue(v)
		}
		fmt.Fprintf(b.stdout, "  %s by pass: %s\n", name, strings.Join(vs, " "))
	}
	ops := make([]string, 0, len(s.opP50))
	for op := range s.opP50 {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(b.stdout, "  latency_p50_ms of %s requests: %s\n", op, formatValue(s.opP50[op]))
	}
	byPass("throughput_rps", s.rps)
	byPass("heap_peak_mb", s.heapPeaks)
	for i, f := range s.failures {
		if i == 5 {
			fmt.Fprintf(b.stdout, "  ... %d more failures\n", len(s.failures)-5)
			break
		}
		fmt.Fprintf(b.stdout, "  failure: %s\n", f)
	}
}

func (b *bench) header(trace int) {
	fmt.Fprintf(b.stdout, "perfbench workload=%s seed=%d trace=%d\n", b.workload, b.seed, trace)
	fmt.Fprintf(b.stdout, "machine %s\n", machine(b.root))
	fmt.Fprintf(b.stdout, "config %s\n", b.config)
	fmt.Fprintf(b.stdout, "inputs %d specs, %d requests a pass, generated in %.3f s\n",
		len(b.in.Specs), b.in.Requests(), b.generated.Seconds())
}

func (b *bench) untraced(budget time.Duration) error {
	m, err := b.measure(budget, false, true, minRequests)
	if err != nil {
		return err
	}
	s := summarize(m)
	b.header(0)
	b.printSummary("end-to-end", s)
	metrics := map[string]any{}
	for _, d := range endToEnd {
		v, ok := s.values[d.name]
		if !ok {
			return fmt.Errorf("%s not measured: %s", d.name, s.omitted[d.name])
		}
		metrics[d.name] = metricValue{v, d.unit}
	}
	return b.result(s, metrics)
}

// traced splits the budget between an untraced run and a traced one,
// so the report shows the tracing overhead, and emits the per-layer
// metrics of the traced run.
func (b *bench) traced(budget time.Duration, spansPath string) error {
	plain, err := b.measure(budget/2, false, true, minRequests)
	if err != nil {
		return err
	}
	tm, err := b.measure(budget/2, true, false, minRequests)
	if err != nil {
		return err
	}
	plainSum, tracedSum := summarize(plain), summarize(tm)
	b.header(1)
	b.printSummary("end-to-end, untraced", plainSum)
	b.printSummary("end-to-end, traced", tracedSum)

	first := tm.traced[0]
	li := layerInput{in: b.in, server: map[string]int64{}, compiled: first.compiled}
	var spans []span
	for i, p := range tm.traced {
		tr := tm.tracers[i]
		li.missing += attribute(tr.spans, p.outcomes, b.in.Specs)
		spans = append(spans, tr.spans...)
		spans = append(spans, clientSpans(p.outcomes)...)
		li.outcomes = append(li.outcomes, p.outcomes...)
		li.gcCycles += p.gcCycles
		for k, v := range p.server {
			li.server[k] += v
		}
	}
	li.spans = spans
	m := perLayer(li)
	m["bench.trace_overhead_ratio"] = ratio(plainSum.values["throughput_rps"], tracedSum.values["throughput_rps"])
	if err := writeSpans(spansPath, spans); err != nil {
		return err
	}
	fmt.Fprintf(b.stdout, "spans: %d written to %s\n", len(spans), spansPath)
	fmt.Fprintln(b.stdout, "per-layer (traced run):")
	metrics := map[string]any{}
	for _, d := range perLayerDefs {
		fmt.Fprintf(b.stdout, "  %s %s %s\n", d.name, formatValue(m[d.name]), d.unit)
		metrics[d.name] = metricValue{m[d.name], d.unit}
	}
	all := plainSum
	all.attempted += tracedSum.attempted
	all.failed += tracedSum.failed
	return b.result(all, metrics)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result prints the closing JSON line.
func (b *bench) result(s summary, metrics map[string]any) error {
	line, err := json.Marshal(map[string]any{
		"correct":   s.failed == 0,
		"attempted": s.attempted,
		"failed":    s.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(b.stdout, string(line))
	return nil
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}
