package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"smoothproc/internal/descvm"
	"smoothproc/internal/eqlang"
	"smoothproc/internal/report"
	"smoothproc/internal/service"
	"smoothproc/internal/store"
)

// target is one in-process smoothd behind a real HTTP listener. A
// restart swaps the service under the same URL and the same store.
type target struct {
	tr    *tracer     // nil for an untraced pass
	mem   store.Store // memory store, kept across restarts
	cur   atomic.Pointer[service.Server]
	ts    *httptest.Server
	first *service.Server
}

// config is smoothd's default config with only the store chosen: a
// memory store the target keeps across restarts, wrapped by the tracer
// in a traced pass.
func (t *target) config() service.Config {
	var cfg service.Config
	cfg.Store = t.mem
	if t.tr != nil {
		cfg.Store = t.tr.wrapStore(cfg.Store)
	}
	return cfg
}

func startTarget(tr *tracer) (*target, error) {
	t := &target{tr: tr, mem: store.NewMemory()}
	if err := t.open(); err != nil {
		return nil, err
	}
	var h http.Handler = http.HandlerFunc(t.serveHTTP)
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	t.ts = httptest.NewServer(h)
	return t, nil
}

func (t *target) open() error {
	srv, err := service.New(t.config())
	if err != nil {
		return err
	}
	t.cur.Store(srv)
	if t.first == nil {
		t.first = srv
	}
	return nil
}

// serveHTTP hands a request to the current server.
func (t *target) serveHTTP(w http.ResponseWriter, r *http.Request) {
	t.cur.Load().Handler().ServeHTTP(w, r)
}

// restart closes the current server and opens a new one on the same
// store. The caller makes sure no request is in flight.
func (t *target) restart(ctx context.Context) error {
	if err := t.cur.Load().Shutdown(ctx); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	return t.open()
}

func (t *target) close(ctx context.Context) error {
	t.ts.Close()
	return t.cur.Load().Shutdown(ctx)
}

// serverMetrics reads GET /metrics into section/item counters.
func serverMetrics(c *http.Client, base string) (map[string]int64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st report.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	out := map[string]int64{}
	for _, sec := range st.Sections {
		for _, it := range sec.Items {
			out[sec.Name+"/"+it.Name] = it.Value
		}
	}
	return out, nil
}

// addDelta adds after−before into acc.
func addDelta(acc, before, after map[string]int64) {
	for k, v := range after {
		acc[k] += v - before[k]
	}
}

// passStats is what the end-to-end summary needs of one pass. An
// untraced pass is reduced to it as soon as it ends, so the live heap
// the next pass starts from holds none of its answers or inputs.
type passStats struct {
	setup     time.Duration
	wall      time.Duration
	requests  int
	failures  []string
	latencyMs []float64
	// opMs holds the same latencies by request op.
	opMs map[string][]float64
	// firstMs is the time to the first streamed solution of each stream.
	firstMs  []float64
	nodes    int
	allocs   float64 // heap objects allocated, whole process
	heapPeak float64 // bytes of live heap, highest sample
	// steal and total are the machine's CPU time counters' growth over
	// the measured replay: the hypervisor's steal and all CPU time.
	steal, total float64
	gcCycles     float64
}

// passResult is one replay of a workload's request list: its summary
// and, for a traced pass, what the per-layer metrics are computed from.
type passResult struct {
	passStats
	outcomes []outcome
	server   map[string]int64
	compiled bool // whether the server evaluates on bytecode
}

// runtime/metrics names the benchmark samples.
const (
	mAllocs   = "/gc/heap/allocs:objects"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mLiveHeap = "/gc/heap/live:bytes"
)

func readRuntime() (allocs, cycles, live float64) {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCycles}, {Name: mLiveHeap}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), float64(s[2].Value.Uint64())
}

// heapSampler records the peak live heap until stopped.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: mLiveHeap}}
		for {
			metrics.Read(s)
			h.peak = max(h.peak, float64(s[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	_, _, live := readRuntime()
	return max(h.peak, live)
}

// runner holds what every pass of one run shares.
type runner struct {
	root     string
	workload string
	seed     int64
	chk      *checker
	clock    time.Time
	// in is the run's request list, generated once from the seed; every
	// pass replays it. config is the first server's effective config.
	in         *Inputs
	config     string
	requestSeq int
}

// pass runs one set-up (a new server, the warm-up uploads) and one
// replay of the request list. tr is nil for an untraced pass.
func (r *runner) pass(ctx context.Context, tr *tracer) (*passResult, error) {
	res := &passResult{server: map[string]int64{}}
	in := r.in
	// Collect the previous pass's garbage first, so set-up does not pay
	// for it at a pass-dependent moment.
	runtime.GC()
	setupStart := time.Now()
	t, err := startTarget(tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := t.close(ctx); err != nil {
			res.failures = append(res.failures, "shutdown: "+err.Error())
		}
	}()
	transport := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	defer transport.CloseIdleConnections()
	cl := &client{http: &http.Client{Transport: transport}, base: t.ts.URL, clock: r.clock}
	for _, i := range in.Warm {
		s := &in.Specs[i]
		o := cl.do(Request{Op: "upload", Spec: i}, s, "warm")
		if o.err != nil {
			return nil, fmt.Errorf("warm-up upload %s: %w", s.Name, o.err)
		}
	}
	res.setup = time.Since(setupStart)

	var config string
	config, res.compiled = effectiveConfig(t.first)
	if r.config == "" {
		r.config = config
	}
	var before map[string]int64
	if tr != nil {
		if before, err = serverMetrics(cl.http, t.ts.URL); err != nil {
			return nil, err
		}
		// Drop the warm-up's spans: only the measured requests are traced.
		tr.mu.Lock()
		tr.spans = nil
		tr.mu.Unlock()
	}
	runtime.GC()
	a0, g0, _ := readRuntime()
	heap := startHeapSampler()
	steal0, total0 := cpuTimes()
	start := time.Now()
	for _, ph := range in.Phases {
		if ph.Restart {
			if tr != nil {
				after, err := serverMetrics(cl.http, t.ts.URL)
				if err != nil {
					return nil, err
				}
				addDelta(res.server, before, after)
				before = map[string]int64{}
			}
			if err := t.restart(ctx); err != nil {
				return nil, err
			}
		}
		r.runPhase(cl, in, ph, res)
	}
	res.wall = time.Since(start)
	steal1, total1 := cpuTimes()
	res.steal, res.total = steal1-steal0, total1-total0
	res.heapPeak = heap.finish()
	a1, g1, _ := readRuntime()
	res.allocs, res.gcCycles = a1-a0, g1-g0
	if tr != nil {
		after, err := serverMetrics(cl.http, t.ts.URL)
		if err != nil {
			return nil, err
		}
		addDelta(res.server, before, after)
	}
	res.requests = len(res.outcomes)
	res.opMs = map[string][]float64{}
	for i := range res.outcomes {
		o := &res.outcomes[i]
		res.latencyMs = append(res.latencyMs, ms(o.latency()))
		res.opMs[o.req.Op] = append(res.opMs[o.req.Op], ms(o.latency()))
		if o.result != nil {
			res.nodes += o.result.Nodes
		}
		if o.firstSolution > 0 {
			res.firstMs = append(res.firstMs, ms(o.firstSolution-o.start))
		}
	}
	return res, nil
}

// runPhase drains a phase's jobs with in.Clients closed-loop clients.
func (r *runner) runPhase(cl *client, in *Inputs, ph Phase, res *passResult) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	base := r.requestSeq
	for _, j := range ph.Jobs {
		r.requestSeq += len(j)
	}
	// Job k's requests get trace ids from offsets[k] on, whichever client
	// runs it, so every request of a run has its own id.
	offsets := make([]int, len(ph.Jobs))
	for k := range ph.Jobs {
		offsets[k] = base
		base += len(ph.Jobs[k])
	}
	for c := 0; c < in.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var outs []outcome
			var fails []string
			for {
				k := int(next.Add(1)) - 1
				if k >= len(ph.Jobs) {
					break
				}
				for n, req := range ph.Jobs[k] {
					s := &in.Specs[req.Spec]
					id := fmt.Sprintf("%s-s%d-r%d", in.Workload, in.Seed, offsets[k]+n)
					o := cl.do(req, s, id)
					if o.err == nil {
						o.err = r.verify(&o, s)
					}
					if o.err != nil {
						fails = append(fails, o.err.Error())
					}
					outs = append(outs, o)
				}
			}
			mu.Lock()
			res.outcomes = append(res.outcomes, outs...)
			res.failures = append(res.failures, fails...)
			mu.Unlock()
		}()
	}
	wg.Wait()
}

// verify checks one successful response: the answer itself, the path
// the server answered by, and the trace id it reports.
func (r *runner) verify(o *outcome, s *Spec) error {
	req := o.req
	switch req.Op {
	case "upload":
		if o.uploadHash != s.Hash {
			return fmt.Errorf("upload %s: server hash %.12s, want %.12s", s.Name, o.uploadHash, s.Hash)
		}
		return nil
	case "solve", "stream":
		if o.job == nil || o.result == nil {
			return fmt.Errorf("%s %s: no job view with a result", req.Op, s.Name)
		}
		// A result-cache hit is answered without a job, so it has no trace
		// id to report.
		if !o.result.Cached && o.job.TraceID != o.traceID {
			return fmt.Errorf("%s %s: job trace id %q, sent %q", req.Op, s.Name, o.job.TraceID, o.traceID)
		}
		if o.job.State != service.JobDone {
			return fmt.Errorf("%s %s: job %s: %s", req.Op, s.Name, o.job.State, o.job.Error)
		}
		if cached := o.result.Cached; cached != (req.Want == "cached") {
			return fmt.Errorf("%s %s d%d: cached %v, want %q", req.Op, s.Name, req.Depth, cached, req.Want)
		}
	case "create", "resume":
		if o.sessOutcome != req.Want {
			return fmt.Errorf("%s %s d%d: answered %q, want %q", req.Op, s.Name, req.Depth, o.sessOutcome, req.Want)
		}
	}
	return r.chk.check(s, req.Depth, o.result)
}

// fillProgramCache lowers throwaway programs until descvm's process-wide
// program cache is at its limit (1024 entries). A long-running smoothd
// reaches that state after about a thousand distinct specs; the
// benchmark's own input generation gets there at a seed-dependent pass.
// Filling it first gives every pass and every seed the same state.
func fillProgramCache() error {
	for i := 0; i < 1200; i++ {
		prog, err := eqlang.CompileSource(fmt.Sprintf("alphabet a = {%d}\nalphabet e = {%d}\ndesc e <- a\n", i, i))
		if err != nil {
			return err
		}
		d := prog.Problem().D
		if _, ok := descvm.Compile(d.F); !ok {
			return fmt.Errorf("descvm does not lower program %d", i)
		}
		if _, ok := descvm.Compile(d.G); !ok {
			return fmt.Errorf("descvm does not lower program %d", i)
		}
	}
	return nil
}
