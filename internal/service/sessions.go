package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"smoothproc/internal/session"
	"smoothproc/internal/specplan"
	"smoothproc/internal/specvet"
	"smoothproc/internal/store"
)

// sessionEntry pairs a live solve session with the static-analysis
// verdicts that gate its delta-solves (and the plan feeding scheduler
// estimates), so both keep working after the spec LRU evicts the
// compiled spec.
type sessionEntry struct {
	sess  *session.Session
	elims []specvet.ElimVerdict
	plan  *specplan.Plan
}

// sessionFor returns the session for a compiled spec — live from the
// cache, restored from the durable store's checkpoint, or (when create
// is set) fresh. Serialized so concurrent lookups converge on one
// session (whose checkpoint they then share). The
// returned entry is pinned against eviction; the caller must
// s.sessions.Unpin(hash) when its leg is done.
func (s *Server) sessionFor(ctx context.Context, hash string, spec compiledSpec, create bool) (*sessionEntry, bool) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if e, ok := s.sessions.Pin(hash); ok {
		return e, true
	}
	p := spec.prog.Problem()
	// Sessions retain their state between solves, so never pin the
	// visited-node list; the wire result does not carry it anyway.
	p.CollectVisited = false
	// A persisted session (same spec) resumes exactly where the previous
	// process stopped: the decoder verifies the checkpoint's content
	// address and rebuilds the frontier with the f its sons carry.
	if meta, err := s.store.Get(ctx, store.KindSession, store.Key(hash)); err == nil {
		sess, err := session.Decode(meta, p, spec.prog.System, func(ref string) ([]byte, error) {
			return s.store.Get(ctx, store.KindCheckpoint, store.Key(ref))
		})
		if err == nil {
			e := &sessionEntry{sess: sess, elims: spec.elims, plan: spec.plan}
			s.sessions.PutPinned(hash, e)
			s.sessionRestores.Inc()
			return e, true
		}
		// Corrupt or incompatible persisted state fails closed: count it
		// and fall through to a fresh session rather than serving doubt.
		s.storeErrors.Inc()
	}
	if !create {
		return nil, false
	}
	e := &sessionEntry{sess: session.New(hash, p, spec.prog.System), elims: spec.elims, plan: spec.plan}
	s.sessions.PutPinned(hash, e)
	s.sessionCreates.Inc()
	return e, true
}

// persistSession writes a session's checkpoint and metadata through to
// the store: first the checkpoint blob under its content address, then
// the meta object naming that address — ordered so a crash between the
// two leaves a resolvable (older) state, never a dangling reference.
// Best-effort: a failed write degrades durability, not the response.
func (s *Server) persistSession(hash string, e *sessionEntry) {
	blob, err := e.sess.Encode()
	if err != nil {
		s.storeErrors.Inc()
		return
	}
	if blob.CheckpointRef != "" {
		if err := s.store.Put(persistCtx, store.KindCheckpoint, store.Key(blob.CheckpointRef), blob.Checkpoint); err != nil {
			s.storeErrors.Inc()
			return
		}
	}
	if err := s.store.Put(persistCtx, store.KindSession, store.Key(hash), blob.Meta); err != nil {
		s.storeErrors.Inc()
	}
}

// liveSession resolves the session for hash without creating one,
// pinned; it writes the 404 itself when neither a live nor a persisted
// session exists. Callers must Unpin on success.
func (s *Server) liveSession(w http.ResponseWriter, r *http.Request, hash string) (*sessionEntry, bool) {
	if spec, ok := s.lookupSpec(r.Context(), hash); ok {
		if e, ok := s.sessionFor(r.Context(), hash, spec, false); ok {
			return e, true
		}
	} else if e, ok := s.sessions.Pin(hash); ok {
		// The spec is gone (store unavailable) but the session is live.
		return e, true
	}
	writeError(w, http.StatusNotFound, errors.New("service: no session for this spec hash (create one via POST /v1/sessions)"))
	return nil, false
}

// sessionView snapshots a session for the wire.
func sessionView(hash string, e *sessionEntry) SessionView {
	solves, resumes, replays := e.sess.Counts()
	return SessionView{
		SpecHash: hash,
		Depth:    e.sess.Depth(),
		Nodes:    e.sess.Nodes(),
		Frontier: e.sess.FrontierSize(),
		Solves:   solves,
		Resumes:  resumes,
		Replays:  replays,
	}
}

// sessionParams clamps a session request's bounds like a solve's, except
// that Depth 0 is kept (meaning "the session's current depth") instead
// of defaulting to the spec's.
func (s *Server) sessionParams(req SessionRequest) SolveParams {
	p := SolveParams{Depth: req.Depth, MaxNodes: req.MaxNodes, Workers: 1}
	p.Depth = min(p.Depth, s.cfg.MaxDepth)
	if p.MaxNodes <= 0 || p.MaxNodes > s.cfg.MaxNodes {
		p.MaxNodes = s.cfg.MaxNodes
	}
	return p
}

// runSession schedules one session leg on the worker pool, waits for it
// and writes the SessionView response. admitStart is the handler's entry
// time, so the job's admit span covers decode and the session lookup.
// The solve runs under the job's deadline: a timed-out leg returns its
// sound truncated result and the session stays resumable from the
// retained queue.
func (s *Server) runSession(w http.ResponseWriter, r *http.Request, hash string, e *sessionEntry, req SessionRequest, admitStart time.Time) {
	p := s.sessionParams(req)
	var outcome session.Outcome
	var estimate uint64
	if e.plan != nil && p.Depth > 0 {
		estimate = e.plan.MinNodes(p.Depth)
	}
	job, err := s.sched.Submit(Submission{
		Tenant:   tenantOf(r),
		SpecHash: hash,
		Params:   p,
		Timeout:  s.timeout(SolveRequest{TimeoutMs: req.TimeoutMs}),
		Estimate: estimate,
		TraceID:  s.traceOf(r),
		AdmitNs:  time.Since(admitStart).Nanoseconds(),
		Run: func(ctx context.Context) (*SolveResult, error) {
			start := time.Now()
			// The prefix's nodes and solutions were counted by the legs that
			// classified them; feed the counters only the growth.
			prevNodes := e.sess.Nodes()
			prevRes, _ := e.sess.Result()
			res, out, err := e.sess.Solve(ctx, session.Options{
				Depth:    p.Depth,
				MaxNodes: p.MaxNodes,
			})
			if err != nil {
				return nil, err
			}
			outcome = out
			s.countSearch(res.Nodes-prevNodes, len(res.Solutions)-len(prevRes.Solutions))
			switch out {
			case session.Resumed:
				s.sessionResumes.Inc()
			case session.Replayed:
				s.sessionReplays.Inc()
			}
			wire := wireResult(res, start)
			// Checkpoint the advanced chain element while still on the
			// worker, so legs whose client disconnected persist and count
			// too. The persist is outside the leg's elapsed time, which is
			// the search's alone.
			s.persistSession(hash, e)
			return wire, nil
		},
	})
	if writeSubmitError(w, err) {
		return
	}
	// The caller's pin drops when the handler returns — which can be at
	// the disconnect 202 below, while the worker still mutates the
	// session. Hold an extra pin for the job's full lifetime (Done is
	// closed on every terminal transition, including forced shutdown).
	if _, ok := s.sessions.Pin(hash); ok {
		go func() { <-job.Done(); s.sessions.Unpin(hash) }()
	}

	select {
	case <-job.Done():
	case <-r.Context().Done():
		// The client went away; the leg keeps running and the session
		// absorbs it — the job stays pollable.
		writeJSON(w, http.StatusAccepted, s.sched.View(job))
		return
	}
	view := s.sched.View(job)
	if view.State == JobFailed {
		status := http.StatusConflict // depth shrink, exhausted budget
		writeError(w, status, errors.New(view.Error))
		return
	}
	sv := sessionView(hash, e)
	sv.Outcome = outcome.String()
	sv.Result = view.Result
	writeJSON(w, http.StatusOK, sv)
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	admitStart := time.Now()
	var req SessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	hash, spec, ok := s.resolveSpec(w, r, req.Source, req.SpecHash)
	if !ok {
		return
	}
	e, _ := s.sessionFor(r.Context(), hash, spec, true)
	defer s.sessions.Unpin(hash)
	if req.Depth <= 0 {
		req.Depth = spec.prog.Depth
	}
	s.runSession(w, r, hash, e, req, admitStart)
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	hash := r.PathValue("hash")
	e, ok := s.liveSession(w, r, hash)
	if !ok {
		return
	}
	defer s.sessions.Unpin(hash)
	writeJSON(w, http.StatusOK, sessionView(hash, e))
}

func (s *Server) handleSessionResume(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	admitStart := time.Now()
	hash := r.PathValue("hash")
	e, ok := s.liveSession(w, r, hash)
	if !ok {
		return
	}
	defer s.sessions.Unpin(hash)
	var req SessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Source != "" || req.SpecHash != "" {
		writeError(w, http.StatusBadRequest, errors.New("service: resume addresses the session by the path hash; drop source/spec_hash"))
		return
	}
	s.runSession(w, r, hash, e, req, admitStart)
}

func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	hash := r.PathValue("hash")
	e, ok := s.liveSession(w, r, hash)
	if !ok {
		return
	}
	defer s.sessions.Unpin(hash)
	var req DeltaRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Channel == "" {
		writeError(w, http.StatusBadRequest, errors.New("service: delta needs a channel"))
		return
	}

	// The gate: only spec edits the static analyzer certified as
	// Theorem 5/6 eliminations may reuse session state.
	verdict, ok := eliminableVerdict(e.elims, req.Channel)
	if !ok {
		reason := "no defining description for the channel"
		for _, v := range e.elims {
			if v.Channel == req.Channel {
				reason = v.Reason
			}
		}
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("service: channel %s is not eliminable (%s); solve the edited spec from scratch", req.Channel, reason))
		return
	}

	d, err := e.sess.Delta(verdict.Index, req.Channel)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	s.deltaSolves.Inc()
	view := DeltaView{
		SpecHash:  hash,
		Channel:   d.Channel,
		Desc:      verdict.Desc,
		Index:     d.Index,
		FromNodes: d.FromNodes,
	}
	for _, desc := range d.System.Descs {
		view.System = append(view.System, desc.String())
	}
	for _, t := range d.Solutions {
		view.Solutions = append(view.Solutions, t.String())
	}
	if req.Check {
		rep, err := e.sess.DeltaCheck(r.Context(), d)
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("service: delta differential check failed: %w", err))
			return
		}
		view.Check = &DeltaCheckView{
			FreshNodes:    rep.FreshNodes,
			Matched:       rep.Matched,
			BeyondHorizon: rep.BeyondHorizon,
		}
	}
	writeJSON(w, http.StatusOK, view)
}

func eliminableVerdict(vs []specvet.ElimVerdict, channel string) (specvet.ElimVerdict, bool) {
	for _, v := range vs {
		if v.Channel == channel && v.Eliminable {
			return v, true
		}
	}
	return specvet.ElimVerdict{}, false
}
