package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"smoothproc/internal/trace"
)

// streamBuf hands solutions from the search's OnSolution callback (which
// must not block) to the HTTP writer goroutine. Safe for concurrent use:
// push appends under the lock and nudges the 1-buffered notify channel;
// since is a snapshot slice of the suffix the reader has not sent yet.
type streamBuf struct {
	mu     sync.Mutex
	items  []trace.Trace
	notify chan struct{}
}

func newStreamBuf() *streamBuf {
	return &streamBuf{notify: make(chan struct{}, 1)}
}

// push is the solver's OnSolution callback: append and nudge, never
// block (a full notify channel means the reader is already scheduled).
func (b *streamBuf) push(t trace.Trace) {
	b.mu.Lock()
	b.items = append(b.items, t)
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// since returns the items from index n on; the capped slice never
// aliases growth from concurrent pushes.
func (b *streamBuf) since(n int) []trace.Trace {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.items[n:len(b.items):len(b.items)]
}

// sseEvent writes one server-sent event with a JSON payload.
func sseEvent(w http.ResponseWriter, event string, data any) error {
	js, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, js)
	return err
}

// handleSolveStream is POST /v1/solve/stream: the solve endpoint with
// progressive results. The search runs as a normal scheduler job; the
// response is a server-sent event stream that opens with a "job" event
// (the job is pollable in parallel), emits one "solution" event per
// smooth solution in canonical commit order as the search classifies
// them — the first typically arrives while the bulk of the tree is still
// open — and closes with a "done" event carrying the full JobView,
// byte-identical in result content to a plain solve. Streamed solves
// bypass the result cache on the way in (a cache hit has nothing to
// stream) but still warm it for later plain solves, unless no_cache
// says nobody will read the answer back.
func (s *Server) handleSolveStream(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	admitStart := time.Now()
	var req SolveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("service: response writer cannot stream"))
		return
	}
	hash, spec, ok := s.resolveSpec(w, r, req.Source, req.SpecHash)
	if !ok {
		return
	}
	prog := spec.prog
	p := s.params(req, prog)
	if est := s.admit(p, spec.plan); est != nil {
		rejectOverBudget(w, est)
		return
	}

	buf := newStreamBuf()
	key := resultKey{hash: hash, params: p}
	var estimate uint64
	if spec.plan != nil {
		estimate = spec.plan.MinNodes(p.Depth)
	}
	job, err := s.sched.Submit(Submission{
		Tenant:   tenantOf(r),
		SpecHash: hash,
		Params:   p,
		Timeout:  s.timeout(req),
		Estimate: estimate,
		TraceID:  s.traceOf(r),
		AdmitNs:  time.Since(admitStart).Nanoseconds(),
		Run: func(ctx context.Context) (*SolveResult, error) {
			out := s.solve(ctx, prog, p, buf.push)
			if !req.NoCache && !out.Truncated && !out.Canceled {
				s.saveResult(key, *out)
			}
			return out, nil
		},
	})
	if writeSubmitError(w, err) {
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if sseEvent(w, "job", StreamJob{ID: job.id, SpecHash: hash, Params: p}) != nil {
		return
	}
	flusher.Flush()

	sent := 0
	emit := func() bool {
		for _, t := range buf.since(sent) {
			if sseEvent(w, "solution", StreamSolution{Index: sent, Trace: t.String()}) != nil {
				return false
			}
			sent++
			s.streamed.Inc()
		}
		flusher.Flush()
		return true
	}
	for {
		select {
		case <-buf.notify:
			if !emit() {
				return
			}
		case <-job.Done():
			// Final drain, then the terminal event with the whole result.
			if !emit() {
				return
			}
			_ = sseEvent(w, "done", s.sched.View(job))
			flusher.Flush()
			return
		case <-r.Context().Done():
			// Client gone; the job keeps running and stays pollable.
			return
		}
	}
}
