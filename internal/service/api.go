// Package service is the smoothd subsystem: an HTTP+JSON front end that
// serves the paper's Section 3.3 tree search as a request/response
// workload. A request carries a description system (an eqlang spec); the
// response is its set of smooth solutions within the requested bounds.
//
// The architecture follows the compile-once/run-many split: POST
// /v1/specs compiles a spec into a reusable artifact cached by content
// hash, POST /v1/solve schedules a bounded search over a compiled spec
// on a worker pool with per-job deadlines, GET /v1/jobs/{id} reports
// asynchronous progress, and GET /metrics exposes the server's counters
// in the repository's stats format. See DESIGN.md for how requests,
// jobs and caches map onto the paper's vocabulary.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"smoothproc/internal/report"
	"smoothproc/internal/specplan"
	"smoothproc/internal/specvet"
	"smoothproc/internal/store"
)

// SpecRequest is the body of POST /v1/specs.
type SpecRequest struct {
	// Source is the eqlang program text.
	Source string `json:"source"`
}

// SpecInfo describes one compiled, cached spec.
type SpecInfo struct {
	// Hash is the content hash naming the compiled artifact; solve
	// requests refer to it.
	Hash string `json:"hash"`
	// Channels and Depth are the solver branching data the spec compiled
	// to; Descriptions render each equation.
	Channels     []string `json:"channels"`
	Depth        int      `json:"depth"`
	Descriptions []string `json:"descriptions"`
	// Cached reports that the spec was already compiled (the upload was
	// served from the spec cache).
	Cached bool `json:"cached"`
	// Findings are the static-analysis results for the spec (package
	// specvet): warnings and theorem classifications. Error-severity
	// findings never appear here — those reject the upload with 400 and
	// ride in ErrorBody.Findings instead.
	Findings []specvet.Diagnostic `json:"findings,omitempty"`
	// Plan is the static search-cost analysis computed at upload and
	// cached beside the compiled spec: node bounds, the Theorem 1
	// partition, per-channel branching. Admission control runs against it.
	Plan *specplan.Plan `json:"plan,omitempty"`
}

// VetError is the rejection of a spec that parses or compiles with
// error-severity static-analysis findings (undefined channels, support
// or growth violations, …). The findings travel to the client in
// ErrorBody.Findings.
type VetError struct {
	Findings []specvet.Diagnostic
}

// Error implements error with the first error-severity finding, which
// Vet guarantees exists.
func (e *VetError) Error() string {
	for _, d := range e.Findings {
		if d.Severity == specvet.SevError {
			return fmt.Sprintf("service: spec rejected by static analysis: %s", d.Message)
		}
	}
	return "service: spec rejected by static analysis"
}

// Line returns the first error finding's source line (0 if none).
func (e *VetError) Line() int {
	for _, d := range e.Findings {
		if d.Severity == specvet.SevError {
			return d.Line
		}
	}
	return 0
}

// SolveRequest is the body of POST /v1/solve. Exactly one of SpecHash
// and Source must be set: a hash refers to a previously uploaded spec,
// inline source is compiled (and cached) on the way in.
type SolveRequest struct {
	SpecHash string `json:"spec_hash,omitempty"`
	Source   string `json:"source,omitempty"`

	// Depth overrides the spec's probe depth (0 = use the spec's own),
	// clamped to the server's MaxDepth.
	Depth int `json:"depth,omitempty"`
	// MaxNodes bounds tree nodes explored; 0 or anything above the
	// server's MaxNodes cap is clamped to the cap.
	MaxNodes int `json:"max_nodes,omitempty"`
	// Workers is accepted and ignored: every search runs on one
	// goroutine.
	//
	// Deprecated: kept only for the benchmark module's client until its
	// next change (ROADMAP item 8).
	Workers int `json:"workers,omitempty"`
	// TimeoutMs bounds the search wall clock; 0 uses the server default.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Wait blocks the request until the job finishes instead of
	// returning 202 with a job to poll.
	Wait bool `json:"wait,omitempty"`
	// NoCache skips the result-cache lookup and persists nothing: the
	// caller will not read this answer back, so it is neither cached nor
	// written to the store. Load generators use this to measure real
	// searches.
	NoCache bool `json:"no_cache,omitempty"`
}

// SolveParams are the normalized search knobs — the part of a solve
// request that determines the answer. They form the result-cache key
// together with the spec hash.
type SolveParams struct {
	Depth    int `json:"depth"`
	MaxNodes int `json:"max_nodes"`
	// Workers is always 1: every search runs on one goroutine.
	//
	// Deprecated: kept only for the benchmark module, which rebuilds
	// result keys from it, until its next change (ROADMAP item 8).
	Workers int `json:"workers"`
}

// resultKey names one (spec, params) search in the result cache — a
// comparable struct, not a rendered string, in the same spirit as the
// solver's hashed trace keys. The timeout is deliberately excluded: a
// completed search's answer does not depend on the deadline it beat,
// and cancelled searches are never cached.
type resultKey struct {
	hash   string
	params SolveParams
}

// SolveResult is the wire form of one completed search.
type SolveResult struct {
	// Solutions are the smooth solutions in the paper's trace notation.
	Solutions []string `json:"solutions"`
	// Frontier and DeadLeaves count the other leaf classes.
	Frontier   int `json:"frontier"`
	DeadLeaves int `json:"dead_leaves"`
	// Nodes is the number of tree nodes this search visited — 0 work is
	// re-done for a cached answer, which tests verify through this field
	// and the server's nodes_searched_total counter.
	Nodes     int  `json:"nodes"`
	Truncated bool `json:"truncated"`
	Canceled  bool `json:"canceled"`
	// Stats is the deterministic part of the search instrumentation
	// (package report's stable format; timing sections are stripped).
	Stats report.Stats `json:"stats"`
	// ElapsedMs is the search wall clock in milliseconds.
	ElapsedMs float64 `json:"elapsed_ms"`
	// Cached reports that this answer came from the result cache.
	Cached bool `json:"cached"`
}

// JobView is the wire form of a job: the response of POST /v1/solve and
// GET /v1/jobs/{id}.
type JobView struct {
	ID       string      `json:"id"`
	State    JobState    `json:"state"`
	SpecHash string      `json:"spec_hash"`
	Params   SolveParams `json:"params"`
	// Tenant is the fair-queuing bucket the job was scheduled under
	// (X-Smoothproc-Tenant header, or "default").
	Tenant string `json:"tenant,omitempty"`
	// TraceID is the request-scoped trace identifier (X-Smoothproc-Trace
	// header, or server-generated) threaded handler → queue → worker →
	// search.
	TraceID string `json:"trace_id,omitempty"`
	// QueueMs and RunMs are this job's queue wait and run duration in
	// milliseconds — final for terminal jobs, still growing for live ones
	// (a queued job has no RunMs yet).
	QueueMs float64 `json:"queue_ms"`
	RunMs   float64 `json:"run_ms,omitempty"`
	// Spans are the job's per-stage timings (admit, queue, run) in
	// pipeline order.
	Spans []SpanView `json:"spans,omitempty"`
	// Error is set for failed jobs; Result for finished ones (a
	// cancelled job keeps its partial result).
	Error  string       `json:"error,omitempty"`
	Result *SolveResult `json:"result,omitempty"`
}

// SpanView is one stage of a job's pipeline on the wire.
type SpanView struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"`
}

// SessionRequest is the body of POST /v1/sessions (create or first
// solve) and POST /v1/sessions/{hash}/resume (deepen). Creation takes
// source or spec_hash like a solve; resume addresses the session by the
// path hash and only carries new bounds.
type SessionRequest struct {
	SpecHash string `json:"spec_hash,omitempty"`
	Source   string `json:"source,omitempty"`

	// Depth and MaxNodes are the requested bounds, clamped like a solve's.
	// A resume must not shrink Depth; growing it deepens the session from
	// its retained frontier.
	Depth    int `json:"depth,omitempty"`
	MaxNodes int `json:"max_nodes,omitempty"`
	// TimeoutMs bounds this leg's wall clock; a timed-out leg keeps the
	// session resumable (the unexplored queue is retained).
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// SessionView is the wire form of a solve session.
type SessionView struct {
	SpecHash string `json:"spec_hash"`
	// Depth is the session's current depth bound; Nodes its commit
	// pointer (nodes classified so far); Frontier the retained
	// depth-bound nodes a resume deepens from.
	Depth    int `json:"depth"`
	Nodes    int `json:"nodes"`
	Frontier int `json:"frontier"`
	// Solves, Resumes and Replays count how the session has answered.
	Solves  int `json:"solves"`
	Resumes int `json:"resumes"`
	Replays int `json:"replays"`
	// Outcome says how the request returning this view was answered:
	// "cold", "resumed" or "replayed". Empty on plain GETs.
	Outcome string `json:"outcome,omitempty"`
	// Result is the latest leg's search result (absent on plain GETs of
	// a session that has not solved yet).
	Result *SolveResult `json:"result,omitempty"`
}

// DeltaRequest is the body of POST /v1/sessions/{hash}/delta: answer a
// Theorem 5/6 channel elimination from the session's retained state.
type DeltaRequest struct {
	// Channel to eliminate. The spec's static analysis must have issued
	// an eliminable verdict for it (see specvet.ElimVerdict); otherwise
	// the delta is rejected with 422.
	Channel string `json:"channel"`
	// Check additionally runs the differential guard: a fresh solve of
	// the eliminated system, verified against the projection in both
	// directions (Theorems 5 and 6). The response carries the account.
	Check bool `json:"check,omitempty"`
}

// DeltaView is the wire form of a delta-solve.
type DeltaView struct {
	SpecHash string `json:"spec_hash"`
	Channel  string `json:"channel"`
	// Desc and Index identify the defining description the elimination
	// went through.
	Desc  string `json:"desc"`
	Index int    `json:"index"`
	// System renders the reduced system's equations.
	System []string `json:"system"`
	// Solutions are the session's solutions projected away from the
	// channel — the reduced system's solutions, by Theorem 5 — in
	// canonical order.
	Solutions []string `json:"solutions"`
	// FromNodes is the session's commit pointer: the search work the
	// projection reused instead of redoing.
	FromNodes int `json:"from_nodes"`
	// Check reports the differential guard when requested.
	Check *DeltaCheckView `json:"check,omitempty"`
}

// DeltaCheckView accounts the delta differential check on the wire.
type DeltaCheckView struct {
	// FreshNodes is the node count of the from-scratch reference solve.
	FreshNodes int `json:"fresh_nodes"`
	// Matched counts fresh solutions equal to a projected one;
	// BeyondHorizon counts fresh solutions whose Theorem 6 lift lies
	// beyond the session's depth bound (the one legitimate mismatch).
	Matched       int `json:"matched"`
	BeyondHorizon int `json:"beyond_horizon"`
}

// StreamSolution is the data payload of a "solution" event on
// /v1/solve/stream: one smooth solution, in canonical commit order,
// emitted while the search is still running.
type StreamSolution struct {
	// Index is the solution's position in the canonical order (0-based).
	Index int `json:"index"`
	// Trace renders the solution in the paper's notation.
	Trace string `json:"trace"`
}

// StreamJob is the data payload of the "job" event opening a stream:
// the scheduler job running the search, pollable via GET /v1/jobs/{id}
// while the stream is live.
type StreamJob struct {
	ID       string      `json:"id"`
	SpecHash string      `json:"spec_hash"`
	Params   SolveParams `json:"params"`
}

// PlanEstimate is the admission-control verdict attached to a 422: the
// static floor on the search the request asked for, against the budget
// it was allowed. PredictedMinNodes is a sound lower bound (the
// Theorem 1 auto-admitted subtree), so a rejected solve was *guaranteed*
// to truncate — the server is not guessing.
type PlanEstimate struct {
	Depth             int    `json:"depth"`
	PredictedMinNodes uint64 `json:"predicted_min_nodes"`
	// NodesBound is the matching upper bound at the same depth, for scale.
	NodesBound     uint64 `json:"nodes_bound"`
	MaxNodes       int    `json:"max_nodes"`
	PartitionWidth int    `json:"partition_width"`
}

// ErrorBody is the structured JSON shape of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	// Line and Snippet locate eqlang compile errors in the submitted
	// source.
	Line    int    `json:"line,omitempty"`
	Snippet string `json:"snippet,omitempty"`
	// Findings carries the full static-analysis report when the spec was
	// rejected by specvet (see VetError).
	Findings []specvet.Diagnostic `json:"findings,omitempty"`
	// Plan carries the admission-control estimate when a solve was
	// rejected as predictably over budget (422).
	Plan *PlanEstimate `json:"plan,omitempty"`
	// Quota carries the per-tenant quota verdict when a submission was
	// rejected with 429 — structurally distinguishable from the
	// server-wide load-shed 503, which has no Quota.
	Quota *QuotaBody `json:"quota,omitempty"`
}

// QuotaBody details a per-tenant quota rejection (429).
type QuotaBody struct {
	Tenant string `json:"tenant"`
	// Quota names the exceeded limit: "max_queued" or "node_budget".
	Quota   string `json:"quota"`
	Limit   uint64 `json:"limit"`
	Current uint64 `json:"current"`
}

// StoreKindView is one object kind's slice of GET /v1/store.
type StoreKindView struct {
	Kind    string `json:"kind"`
	Objects int    `json:"objects"`
	Bytes   int64  `json:"bytes"`
	// Stats are the per-kind traffic counters (hits, misses, …).
	Stats store.KindStats `json:"stats"`
}

// StoreView is the body of GET /v1/store: the durable layer's footprint
// and traffic.
type StoreView struct {
	// Backend is "disk" (running with -data-dir) or "memory".
	Backend string `json:"backend"`
	// Dir is the disk backend's root ("" for memory).
	Dir          string          `json:"dir,omitempty"`
	Kinds        []StoreKindView `json:"kinds"`
	TotalObjects int             `json:"total_objects"`
	TotalBytes   int64           `json:"total_bytes"`
}

// StoreListView is the body of GET /v1/store/{kind}.
type StoreListView struct {
	Kind    string       `json:"kind"`
	Objects []store.Info `json:"objects"`
}

// StoreGCRequest is the body of POST /v1/store/gc: delete oldest
// objects until at most MaxBytes of payload remain.
type StoreGCRequest struct {
	MaxBytes int64 `json:"max_bytes"`
}

// StoreGCView reports what a GC pass deleted.
type StoreGCView struct {
	Deleted        []store.Info `json:"deleted"`
	DeletedBytes   int64        `json:"deleted_bytes"`
	RemainingBytes int64        `json:"remaining_bytes"`
}

// specHash names a spec by the SHA-256 of its source text.
func specHash(source string) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:])
}
