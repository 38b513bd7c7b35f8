package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/metrics"
	"smoothproc/internal/report"
	"smoothproc/internal/solver"
	"smoothproc/internal/specplan"
	"smoothproc/internal/specvet"
	"smoothproc/internal/store"
	"smoothproc/internal/trace"
)

// Config bounds the server. Every knob has a production-minded default:
// bounded queue, bounded depth, bounded nodes, bounded wall clock — a
// request can ask for less than the caps but never more.
type Config struct {
	// Workers is the solve worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds waiting jobs; beyond it the server sheds load
	// with 503 (default 64).
	QueueDepth int
	// SpecCacheSize and ResultCacheSize bound the two LRUs (defaults 128
	// and 1024).
	SpecCacheSize   int
	ResultCacheSize int
	// SessionCacheSize bounds the live solve sessions (default 64). Each
	// session retains its classified prefix and search frontier, so this
	// cap is the server's incremental-state memory knob.
	SessionCacheSize int
	// MaxDepth caps the probe depth a request may ask for (default 12).
	MaxDepth int
	// MaxNodes caps (and defaults) the per-search node budget (default
	// 500000).
	MaxNodes int
	// DefaultTimeout and MaxTimeout bound each job's wall clock
	// (defaults 30s and 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DataDir roots the durable store. When set, uploaded specs,
	// finished solve results and sessions survive restarts: the
	// in-memory LRUs become read-through caches in front of the disk
	// store. Empty means an in-memory store (caching and metrics behave
	// identically; nothing survives the process).
	DataDir string
	// Store overrides the backend directly (tests inject one); it takes
	// precedence over DataDir.
	Store store.Store
	// Per-tenant scheduling quotas (tenant = X-Smoothproc-Tenant header,
	// "default" otherwise). TenantMaxQueued bounds one tenant's waiting
	// jobs (default QueueDepth), TenantMaxRunning its running jobs
	// (default Workers), TenantNodeBudget the summed static node
	// estimates of its in-flight work (default 0 = unlimited). Negative
	// values mean unlimited. A quota rejection is a structured 429,
	// distinct from the server-wide load-shed 503.
	TenantMaxQueued  int
	TenantMaxRunning int
	TenantNodeBudget uint64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SpecCacheSize <= 0 {
		c.SpecCacheSize = 128
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 1024
	}
	if c.SessionCacheSize <= 0 {
		c.SessionCacheSize = 64
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 500000
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.TenantMaxQueued == 0 {
		c.TenantMaxQueued = c.QueueDepth
	}
	if c.TenantMaxRunning == 0 {
		c.TenantMaxRunning = c.Workers
	}
	return c
}

// quota converts the config knobs to the scheduler's quota (negative =
// unlimited = zero there).
func (c Config) quota() TenantQuota {
	return TenantQuota{
		MaxQueued:  max(c.TenantMaxQueued, 0),
		MaxRunning: max(c.TenantMaxRunning, 0),
		NodeBudget: c.TenantNodeBudget,
	}
}

// compiledSpec is the spec cache's value: the compiled program together
// with its static-analysis findings, so re-uploads report the same
// classification without re-vetting.
type compiledSpec struct {
	prog     *eqlang.Program
	findings []specvet.Diagnostic
	// elims are the structured Theorems 5/6 verdicts; the delta-solve
	// endpoint is gated on them.
	elims []specvet.ElimVerdict
	// plan is the static search-cost analysis, computed once at upload.
	// Admission control and the scheduler's job cost read it on every
	// solve.
	plan *specplan.Plan
}

// Server wires the store, the caches, the scheduler and the HTTP
// surface together. The three LRUs are read-through caches over one
// durable store: a miss consults the store before declaring
// the object unknown, and completed work is written through, so a
// restart on the same -data-dir resumes with its specs, results and
// sessions intact.
type Server struct {
	cfg      Config
	sched    *Scheduler
	store    *store.Measured
	backend  string // "disk" or "memory", for /v1/store
	specs    *LRU[string, compiledSpec]
	results  *LRU[resultKey, SolveResult]
	sessions *LRU[string, *sessionEntry]
	sessMu   sync.Mutex // serializes session create-or-get
	mux      *http.ServeMux

	requests      metrics.Counter
	compiles      metrics.Counter
	compileErrors metrics.Counter
	nodesSearched metrics.Counter
	solutions     metrics.Counter
	// Admission control: solves the static plan admitted, and solves it
	// rejected as guaranteed over budget.
	admitted           metrics.Counter
	rejectedOverBudget metrics.Counter
	// Session and streaming traffic: how often incremental state was
	// created, deepened (resumes), served as-is (replays), answered by a
	// Theorem 5/6 projection (deltas), and how many solutions were pushed
	// over live streams.
	sessionCreates metrics.Counter
	sessionResumes metrics.Counter
	sessionReplays metrics.Counter
	deltaSolves    metrics.Counter
	streamed       metrics.Counter
	// Durable-layer traffic: sessions rebuilt from their records after a
	// restart (or cache eviction), and store operations that
	// failed (persistence is best-effort on the write path: a full disk
	// degrades durability, not availability).
	sessionRestores metrics.Counter
	storeErrors     metrics.Counter
	start           time.Time
}

// New builds a server and starts its worker pool. Callers own shutdown:
// see Shutdown. The only construction error is a DataDir that cannot be
// opened.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	backend, name := cfg.Store, "memory"
	if backend == nil {
		if cfg.DataDir != "" {
			disk, err := store.NewDisk(cfg.DataDir)
			if err != nil {
				return nil, err
			}
			backend = disk
		} else {
			backend = store.NewMemory()
		}
	}
	if _, ok := backend.(*store.Disk); ok {
		name = "disk"
	}
	s := &Server{
		cfg:      cfg,
		sched:    NewSchedulerQuota(cfg.Workers, cfg.QueueDepth, cfg.quota()),
		store:    store.NewMeasured(backend),
		backend:  name,
		specs:    NewLRU[string, compiledSpec](cfg.SpecCacheSize),
		results:  NewLRU[resultKey, SolveResult](cfg.ResultCacheSize),
		sessions: NewLRU[string, *sessionEntry](cfg.SessionCacheSize),
		mux:      http.NewServeMux(),
		start:    time.Now(),
	}
	s.mux.HandleFunc("POST /v1/specs", s.handleSpecs)
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/solve/stream", s.handleSolveStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions/{hash}", s.handleSessionGet)
	s.mux.HandleFunc("POST /v1/sessions/{hash}/resume", s.handleSessionResume)
	s.mux.HandleFunc("POST /v1/sessions/{hash}/delta", s.handleSessionDelta)
	s.mux.HandleFunc("GET /v1/store", s.handleStoreStats)
	s.mux.HandleFunc("GET /v1/store/{kind}", s.handleStoreList)
	s.mux.HandleFunc("POST /v1/store/gc", s.handleStoreGC)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the scheduler (see Scheduler.Shutdown) and closes the
// store. The HTTP listener is the caller's to stop first.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.sched.Shutdown(ctx)
	if cerr := s.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// persistCtx is the context for store writes. Deliberately a root:
// durable writes are server-scoped — a client disconnecting mid-request
// must not abort persisting work the server already did.
var persistCtx = context.Background() //smoothlint:allow ctxflow store persistence is server-scoped, not request-scoped

// maxBodyBytes bounds request bodies; specs are small programs, not
// bulk uploads.
const maxBodyBytes = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Compact: every client decodes the body, and smoothctl prints its
	// own text. An encode error here means the connection is gone; there
	// is no one left to tell.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := ErrorBody{Error: err.Error()}
	var eqErr *eqlang.Error
	if errors.As(err, &eqErr) {
		body.Line = eqErr.Line
	}
	writeJSON(w, status, body)
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// compile returns the cached spec for source, vetting, compiling and
// caching on a miss. Compilation runs through the static analyzer: a
// spec with error-severity findings (parse/compile failures, support or
// growth violations, undefined channels) is rejected with a *VetError
// carrying the full findings; warnings and theorem classifications are
// cached alongside the program and reported non-fatally.
func (s *Server) compile(source string) (hash string, spec compiledSpec, cached bool, err error) {
	hash = specHash(source)
	if spec, ok := s.specs.Get(hash); ok {
		return hash, spec, true, nil
	}
	s.compiles.Inc()
	vr := specvet.Vet(source)
	if vr.HasErrors() {
		s.compileErrors.Inc()
		return "", compiledSpec{}, false, &VetError{Findings: vr.Findings}
	}
	spec = compiledSpec{prog: vr.Program, findings: vr.Findings, elims: vr.Eliminations, plan: vr.Plan}
	s.specs.Put(hash, spec)
	return hash, spec, false, nil
}

// upload compiles a source a client sent and, on a spec-cache miss,
// writes it through to the store: the hash stays resolvable across
// cache eviction and restarts (specs are tiny; findings and plan are
// recomputed on the way back in).
func (s *Server) upload(source string) (hash string, spec compiledSpec, cached bool, err error) {
	hash, spec, cached, err = s.compile(source)
	if err == nil && !cached {
		if err := s.store.Put(persistCtx, store.KindSpec, store.Key(hash), []byte(source)); err != nil {
			s.storeErrors.Inc()
		}
	}
	return hash, spec, cached, err
}

// lookupSpec resolves a hash to its compiled spec: LRU first, then the
// durable store (recompiling the persisted source, which is not written
// back). False means the hash is genuinely unknown.
func (s *Server) lookupSpec(ctx context.Context, hash string) (compiledSpec, bool) {
	if spec, ok := s.specs.Get(hash); ok {
		return spec, true
	}
	data, err := s.store.Get(ctx, store.KindSpec, store.Key(hash))
	if err != nil {
		return compiledSpec{}, false
	}
	h, spec, _, err := s.compile(string(data))
	if err != nil || h != hash {
		// A persisted spec that no longer vets (or hashes differently)
		// cannot be served under this name.
		s.storeErrors.Inc()
		return compiledSpec{}, false
	}
	return spec, true
}

// storeResultKey derives the result blob's store key from the cache
// key: the SHA-256 of the canonical (spec, params) rendering. The
// trailing w1 is the form results had when a worker count was part of
// the key; keeping it keeps results stored at one worker addressable.
func storeResultKey(k resultKey) store.Key {
	return store.KeyOf([]byte(fmt.Sprintf("result|%s|d%d|n%d|w1",
		k.hash, k.params.Depth, k.params.MaxNodes)))
}

// cachedResult is the read-through result lookup: LRU, then store.
func (s *Server) cachedResult(ctx context.Context, key resultKey) (*SolveResult, bool) {
	if res, ok := s.results.Get(key); ok {
		return &res, true
	}
	data, err := s.store.Get(ctx, store.KindResult, storeResultKey(key))
	if err != nil {
		return nil, false
	}
	var res SolveResult
	if json.Unmarshal(data, &res) != nil {
		s.storeErrors.Inc()
		return nil, false
	}
	s.results.Put(key, res)
	return &res, true
}

// saveResult writes a finished search through the LRU into the store.
func (s *Server) saveResult(key resultKey, res SolveResult) {
	s.results.Put(key, res)
	data, err := json.Marshal(res)
	if err == nil {
		err = s.store.Put(persistCtx, store.KindResult, storeResultKey(key), data)
	}
	if err != nil {
		s.storeErrors.Inc()
	}
}

func specInfo(hash string, spec compiledSpec, cached bool) SpecInfo {
	p := spec.prog.Problem()
	info := SpecInfo{
		Hash:     hash,
		Channels: p.Channels,
		Depth:    spec.prog.Depth,
		Cached:   cached,
		Findings: spec.findings,
		Plan:     spec.plan,
	}
	for _, d := range spec.prog.System.Descs {
		info.Descriptions = append(info.Descriptions, d.String())
	}
	return info
}

func (s *Server) handleSpecs(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	var req SpecRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, errors.New("service: empty spec source"))
		return
	}
	hash, spec, cached, err := s.upload(req.Source)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, compileErrorBody(err, req.Source))
		return
	}
	writeJSON(w, http.StatusOK, specInfo(hash, spec, cached))
}

// compileErrorBody builds the 400 body for a rejected spec, locating
// the first error in the submitted source. Vet rejections carry the
// full findings list; plain eqlang errors carry line and snippet only.
func compileErrorBody(err error, source string) ErrorBody {
	body := ErrorBody{Error: err.Error()}
	var ve *VetError
	var eqErr *eqlang.Error
	switch {
	case errors.As(err, &ve):
		body.Findings = ve.Findings
		if line := ve.Line(); line > 0 {
			body.Line = line
			body.Snippet = eqlang.FormatSnippet(source, line)
		}
	case errors.As(err, &eqErr):
		body.Line = eqErr.Line
		body.Snippet = eqlang.FormatSnippet(source, eqErr.Line)
	}
	return body
}

// resolveSpec turns a request's source-or-hash pair into a compiled
// spec, writing the error response itself when it cannot (false return).
func (s *Server) resolveSpec(w http.ResponseWriter, r *http.Request, source, specHash string) (hash string, spec compiledSpec, ok bool) {
	switch {
	case source != "" && specHash != "":
		writeError(w, http.StatusBadRequest, errors.New("service: give source or spec_hash, not both"))
		return "", compiledSpec{}, false
	case source != "":
		var err error
		if hash, spec, _, err = s.upload(source); err != nil {
			writeJSON(w, http.StatusBadRequest, compileErrorBody(err, source))
			return "", compiledSpec{}, false
		}
		return hash, spec, true
	case specHash != "":
		spec, found := s.lookupSpec(r.Context(), specHash)
		if !found {
			writeError(w, http.StatusNotFound, errors.New("service: unknown spec hash (upload it via /v1/specs)"))
			return "", compiledSpec{}, false
		}
		return specHash, spec, true
	default:
		writeError(w, http.StatusBadRequest, errors.New("service: need source or spec_hash"))
		return "", compiledSpec{}, false
	}
}

// maxTenantLen bounds the accepted tenant header; longer names are
// truncated rather than rejected (quota identity, not data).
const maxTenantLen = 64

// tenantOf extracts the request's fair-queuing tenant.
func tenantOf(r *http.Request) string {
	t := r.Header.Get("X-Smoothproc-Tenant")
	if t == "" {
		return DefaultTenant
	}
	if len(t) > maxTenantLen {
		t = t[:maxTenantLen]
	}
	return t
}

// traceOf returns the request's trace ID, honoring a client-supplied
// X-Smoothproc-Trace and minting one otherwise, so every job is
// traceable end to end whether or not the caller propagates IDs.
func (s *Server) traceOf(r *http.Request) string {
	if id := r.Header.Get("X-Smoothproc-Trace"); id != "" {
		if len(id) > maxTenantLen {
			id = id[:maxTenantLen]
		}
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "trace-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// submit schedules sub on the worker pool for request r. It fills in
// what every job takes from its request: the tenant and the trace id
// from r's headers, the admit span from admitStart (the handler's
// entry) to now, and, given the spec's plan, the job's cost, the plan's
// node floor at sub's depth. When the scheduler refuses the job, submit
// writes the rejection and returns false: quota rejections are
// structured 429s (per-tenant back-pressure), queue-full and shutdown
// are 503s (server-wide), anything else a 500.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, admitStart time.Time, plan *specplan.Plan, sub Submission) (*Job, bool) {
	sub.Tenant = tenantOf(r)
	if plan != nil && sub.Params.Depth > 0 {
		sub.Estimate = plan.MinNodes(sub.Params.Depth)
	}
	sub.TraceID = s.traceOf(r)
	sub.AdmitNs = time.Since(admitStart).Nanoseconds()
	job, err := s.sched.Submit(sub)
	var qe *QuotaError
	switch {
	case err == nil:
		return job, true
	case errors.As(err, &qe):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorBody{
			Error: qe.Error(),
			Quota: &QuotaBody{Tenant: qe.Tenant, Quota: qe.Quota, Limit: qe.Limit, Current: qe.Current},
		})
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrShutdown):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
	return nil, false
}

// params clamps a request's bounds to the server caps: the depth to
// MaxDepth, and a node budget of 0 or over MaxNodes to MaxNodes.
func (s *Server) params(depth, maxNodes int) SolveParams {
	if maxNodes <= 0 || maxNodes > s.cfg.MaxNodes {
		maxNodes = s.cfg.MaxNodes
	}
	return SolveParams{Depth: min(depth, s.cfg.MaxDepth), MaxNodes: maxNodes, Workers: 1}
}

// admit runs static admission control: a request whose *guaranteed*
// search floor (Plan.MinNodes, the Theorem 1 auto-admitted subtree)
// exceeds its node budget cannot finish — it would burn a worker only
// to truncate — so it is rejected up front and never reaches the
// scheduler. The estimate is returned for the 422 body; nil admits.
// The upper bound alone never rejects: a small Nodes bound proves a
// search cheap, but a large one does not prove it expensive.
func (s *Server) admit(p SolveParams, plan *specplan.Plan) *PlanEstimate {
	if plan == nil {
		return nil
	}
	lo := plan.MinNodes(p.Depth)
	if lo <= uint64(p.MaxNodes) {
		s.admitted.Inc()
		return nil
	}
	s.rejectedOverBudget.Inc()
	return &PlanEstimate{
		Depth:             p.Depth,
		PredictedMinNodes: lo,
		NodesBound:        plan.Nodes(p.Depth),
		MaxNodes:          p.MaxNodes,
		PartitionWidth:    plan.PartitionWidth,
	}
}

// rejectOverBudget writes the structured 422 for an inadmissible solve.
func rejectOverBudget(w http.ResponseWriter, est *PlanEstimate) {
	writeJSON(w, http.StatusUnprocessableEntity, ErrorBody{
		Error: fmt.Sprintf("service: solve rejected by admission control: the search visits at least %s nodes at depth %d, over the %d-node budget (lower the depth or raise max_nodes)",
			specplan.FormatBound(est.PredictedMinNodes), est.Depth, est.MaxNodes),
		Plan: est,
	})
}

// timeout is a job's wall-clock bound: the request's timeout_ms, or the
// server default when that is 0, capped at MaxTimeout.
func (s *Server) timeout(ms int) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	return min(d, s.cfg.MaxTimeout)
}

// solveCall is an admitted solve or stream request.
type solveCall struct {
	req  SolveRequest
	hash string
	spec compiledSpec
	p    SolveParams
}

func (c *solveCall) key() resultKey { return resultKey{hash: c.hash, params: c.p} }

// admitSolve is the front half of the solve and stream handlers: it
// decodes the body, resolves the spec, normalizes the bounds (depth 0
// is the spec's own) and runs admission control. When a step refuses,
// it writes the response itself and returns false.
func (s *Server) admitSolve(w http.ResponseWriter, r *http.Request) (c *solveCall, ok bool) {
	c = new(solveCall)
	if !decodeBody(w, r, &c.req) {
		return nil, false
	}
	if c.hash, c.spec, ok = s.resolveSpec(w, r, c.req.Source, c.req.SpecHash); !ok {
		return nil, false
	}
	depth := c.req.Depth
	if depth <= 0 {
		depth = c.spec.prog.Depth
	}
	c.p = s.params(depth, c.req.MaxNodes)
	if est := s.admit(c.p, c.spec.plan); est != nil {
		rejectOverBudget(w, est)
		return nil, false
	}
	return c, true
}

// submitSolve schedules c's from-scratch search, streaming its
// solutions to onSolution when that is non-nil (the stream endpoint).
// A search that ran to its bounds is saved, unless no_cache says nobody
// will read it back.
func (s *Server) submitSolve(w http.ResponseWriter, r *http.Request, admitStart time.Time, c *solveCall, onSolution func(trace.Trace)) (*Job, bool) {
	return s.submit(w, r, admitStart, c.spec.plan, Submission{
		SpecHash: c.hash,
		Params:   c.p,
		Timeout:  s.timeout(c.req.TimeoutMs),
		Run: func(ctx context.Context) (*SolveResult, error) {
			problem := c.spec.prog.Problem()
			problem.MaxDepth = c.p.Depth
			problem.MaxNodes = c.p.MaxNodes
			problem.OnSolution = onSolution
			start := time.Now()
			res := solver.Enumerate(ctx, problem)
			s.countSearch(res.Nodes, res.Solutions.Len())
			out := wireResult(res, start)
			if !c.req.NoCache && !out.Truncated && !out.Canceled {
				s.saveResult(c.key(), *out)
			}
			return out, nil
		},
	})
}

// countSearch feeds the search counters. newNodes and newSolutions are
// what this search actually classified — for a resumed session leg that
// is the growth beyond the retained prefix, so nodes_searched_total
// reflects real work, not re-reported prefixes.
func (s *Server) countSearch(newNodes, newSolutions int) {
	s.nodesSearched.Add(int64(newNodes))
	s.solutions.Add(int64(newSolutions))
}

// wireResult converts a solver result to the wire form.
func wireResult(res solver.Result, start time.Time) *SolveResult {
	return &SolveResult{
		Solutions:  res.SolutionKeys(),
		Frontier:   res.Frontier.Len(),
		DeadLeaves: res.DeadLeaves.Len(),
		Nodes:      res.Nodes,
		Truncated:  res.Truncated,
		Canceled:   res.Canceled,
		Stats:      res.Stats.DeterministicReport(),
		ElapsedMs:  float64(time.Since(start).Microseconds()) / 1000,
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	admitStart := time.Now()
	c, ok := s.admitSolve(w, r)
	if !ok {
		return
	}
	if !c.req.NoCache {
		if cached, ok := s.cachedResult(r.Context(), c.key()); ok {
			cached.Cached = true
			writeJSON(w, http.StatusOK, JobView{
				State:    JobDone,
				SpecHash: c.hash,
				Params:   c.p,
				Result:   cached,
			})
			return
		}
	}
	job, ok := s.submitSolve(w, r, admitStart, c, nil)
	if !ok {
		return
	}

	if c.req.Wait {
		select {
		case <-job.Done():
			writeJSON(w, http.StatusOK, s.sched.View(job))
		case <-r.Context().Done():
			// The client went away; the job keeps running and stays
			// pollable.
			writeJSON(w, http.StatusAccepted, s.sched.View(job))
		}
		return
	}
	writeJSON(w, http.StatusAccepted, s.sched.View(job))
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	job, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("service: unknown job id"))
		return
	}
	writeJSON(w, http.StatusOK, s.sched.View(job))
}

// storeView assembles the durable layer's footprint for GET /v1/store
// and the smoothctl store tooling.
func (s *Server) storeView(ctx context.Context) (StoreView, error) {
	v := StoreView{Backend: s.backend}
	if d, ok := s.store.Unwrap().(*store.Disk); ok {
		v.Dir = d.Dir()
	}
	for _, k := range store.Kinds() {
		infos, err := s.store.List(ctx, k)
		if err != nil {
			return StoreView{}, err
		}
		kv := StoreKindView{Kind: string(k), Objects: len(infos), Stats: s.store.KindStats(k)}
		for _, info := range infos {
			kv.Bytes += info.Size
		}
		v.Kinds = append(v.Kinds, kv)
		v.TotalObjects += kv.Objects
		v.TotalBytes += kv.Bytes
	}
	return v, nil
}

func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	v, err := s.storeView(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleStoreList(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	kind := store.Kind(r.PathValue("kind"))
	if !store.ValidKind(kind) {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown store kind %q", kind))
		return
	}
	infos, err := s.store.List(r.Context(), kind)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, StoreListView{Kind: string(kind), Objects: infos})
}

func (s *Server) handleStoreGC(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	var req StoreGCRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.MaxBytes < 0 {
		writeError(w, http.StatusBadRequest, errors.New("service: max_bytes must be >= 0"))
		return
	}
	deleted, err := store.GC(r.Context(), s.store, req.MaxBytes)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	v := StoreGCView{Deleted: deleted}
	if v.Deleted == nil {
		v.Deleted = []store.Info{}
	}
	for _, info := range deleted {
		v.DeletedBytes += info.Size
	}
	if sv, err := s.storeView(r.Context()); err == nil {
		v.RemainingBytes = sv.TotalBytes
	}
	writeJSON(w, http.StatusOK, v)
}

// Metrics snapshots the server counters in the repository's stable
// stats format — the same shape the solver and netsim report, so the
// tooling (and goldens) carry over.
func (s *Server) Metrics() report.Stats {
	server := report.Section{Name: "server"}
	server.Add("requests total", s.requests.Load(), "")
	server.Add("specs compiled", s.compiles.Load(), "")
	server.Add("compile errors", s.compileErrors.Load(), "")
	server.Add("uptime", int64(time.Since(s.start)), "ns")

	cache := report.Section{Name: "cache"}
	cache.Add("spec hits", s.specs.Hits(), "")
	cache.Add("spec misses", s.specs.Misses(), "")
	cache.AddInt("spec entries", s.specs.Len())
	cache.Add("result hits", s.results.Hits(), "")
	cache.Add("result misses", s.results.Misses(), "")
	cache.AddInt("result entries", s.results.Len())

	admission := report.Section{Name: "admission"}
	admission.Add("admitted", s.admitted.Load(), "")
	admission.Add("rejected over budget", s.rejectedOverBudget.Load(), "")

	jobs := report.Section{Name: "jobs"}
	submitted, completed, failed, canceled := s.sched.Counts()
	jobs.Add("submitted", submitted, "")
	jobs.Add("completed", completed, "")
	jobs.Add("failed", failed, "")
	jobs.Add("canceled", canceled, "")
	jobs.AddInt("queued", s.sched.QueueDepth())
	queueWait, runTime := s.sched.Durations()
	jobs.Add("queue wait total", queueWait.TotalNanos(), "ns")
	jobs.Add("queue wait count", queueWait.Count(), "")
	jobs.Add("run total", runTime.TotalNanos(), "ns")
	jobs.Add("run count", runTime.Count(), "")

	sessions := report.Section{Name: "sessions"}
	sessions.Add("created", s.sessionCreates.Load(), "")
	sessions.Add("resumed", s.sessionResumes.Load(), "")
	sessions.Add("replayed", s.sessionReplays.Load(), "")
	sessions.Add("delta solves", s.deltaSolves.Load(), "")
	sessions.Add("solutions streamed", s.streamed.Load(), "")
	sessions.Add("restored from store", s.sessionRestores.Load(), "")
	sessions.AddInt("live", s.sessions.Len())

	storeSec := report.Section{Name: "store"}
	for _, k := range store.Kinds() {
		ks := s.store.KindStats(k)
		storeSec.Add(string(k)+" puts", ks.Puts, "")
		storeSec.Add(string(k)+" hits", ks.Hits, "")
		storeSec.Add(string(k)+" misses", ks.Misses, "")
		storeSec.Add(string(k)+" corrupt", ks.Corrupt, "")
		storeSec.Add(string(k)+" bytes in", ks.BytesIn, "B")
		storeSec.Add(string(k)+" bytes out", ks.BytesOut, "B")
	}
	storeSec.Add("errors", s.storeErrors.Load(), "")

	tenants := report.Section{Name: "tenants"}
	for _, ts := range s.sched.TenantStats() {
		tenants.Add(ts.Tenant+" submitted", ts.Submitted, "")
		tenants.Add(ts.Tenant+" completed", ts.Completed, "")
		tenants.Add(ts.Tenant+" failed", ts.Failed, "")
		tenants.Add(ts.Tenant+" canceled", ts.Canceled, "")
		tenants.Add(ts.Tenant+" quota rejected", ts.Rejected, "")
		tenants.AddInt(ts.Tenant+" queued", ts.Queued)
		tenants.AddInt(ts.Tenant+" running", ts.Running)
		tenants.Add(ts.Tenant+" inflight node estimate", int64(ts.Inflight), "")
		tenants.Add(ts.Tenant+" queue wait total", ts.QueueNs, "ns")
		tenants.Add(ts.Tenant+" run total", ts.RunNs, "ns")
	}

	search := report.Section{Name: "search"}
	search.Add("nodes searched total", s.nodesSearched.Load(), "")
	search.Add("solutions found total", s.solutions.Load(), "")

	return report.Stats{Sections: []report.Section{server, cache, admission, jobs, sessions, storeSec, tenants, search}}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
