package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"smoothproc/internal/service"
	"smoothproc/internal/store"
)

// span is one timed interval of a request, keyed by the trace id the
// benchmark sent in X-Smoothproc-Trace.
type span struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// Kind is the HTTP path of a handler span, the op of a client span
	// and the object kind of a store span.
	Kind  string `json:"kind,omitempty"`
	Key   string `json:"key,omitempty"`
	Bytes int    `json:"bytes,omitempty"`
	// Start is the offset from the run's clock origin; Dur the length.
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`

	meta []byte // a session object's payload, which names its checkpoint
}

func (s span) end() time.Duration { return s.Start + s.Dur }

// tracer records spans from outside the server: around its HTTP
// handler and around the store it is given. Spans stay in memory until
// the run writes them out.
type tracer struct {
	clock time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type traceKey struct{}

// traceOf returns the trace id a context carries: the handler wrapper's
// for request-scoped calls, the scheduler's for calls on a worker, or ""
// for server-scoped calls such as persistence.
func traceOf(ctx context.Context) string {
	if id, ok := ctx.Value(traceKey{}).(string); ok {
		return id
	}
	return service.TraceID(ctx)
}

// wrapHandler times every request that carries a trace id.
func (t *tracer) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Smoothproc-Trace")
		if id == "" || id == "warm" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Since(t.clock)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), traceKey{}, id)))
		t.add(span{Trace: id, Name: "handler", Parent: "client", Kind: r.URL.Path, Start: start, Dur: time.Since(t.clock) - start})
	})
}

// tracedStore times Put and Get on the store the server is given.
type tracedStore struct {
	store.Store
	t *tracer
}

func (t *tracer) wrapStore(s store.Store) store.Store { return &tracedStore{Store: s, t: t} }

func (s *tracedStore) Put(ctx context.Context, kind store.Kind, key store.Key, data []byte) error {
	start := time.Since(s.t.clock)
	err := s.Store.Put(ctx, kind, key, data)
	sp := span{Trace: traceOf(ctx), Name: "store.put", Parent: "handler", Kind: string(kind), Key: string(key), Bytes: len(data), Start: start, Dur: time.Since(s.t.clock) - start}
	if kind == store.KindSession {
		sp.meta = append([]byte(nil), data...)
	}
	s.t.add(sp)
	return err
}

func (s *tracedStore) Get(ctx context.Context, kind store.Kind, key store.Key) ([]byte, error) {
	start := time.Since(s.t.clock)
	data, err := s.Store.Get(ctx, kind, key)
	s.t.add(span{Trace: traceOf(ctx), Name: "store.get", Parent: "handler", Kind: string(kind), Key: string(key), Bytes: len(data), Start: start, Dur: time.Since(s.t.clock) - start})
	return data, err
}

// resultKey is the store address smoothd gives a solve result.
func resultKey(hash string, p service.SolveParams) string {
	return string(store.KeyOf([]byte(fmt.Sprintf("result|%s|d%d|n%d|w%d", hash, p.Depth, p.MaxNodes, p.Workers))))
}

// attribute gives every store span written outside a request context
// (the server persists on a root context) the trace id of the request
// that caused it: spec and session objects are keyed by the spec hash,
// result objects by spec hash and params, and a checkpoint by the
// session object written right after it, which names it. It returns the
// spans still without a trace id.
func attribute(spans []span, outs []outcome, specs []Spec) int {
	type owner struct {
		id         string
		start, end time.Duration
	}
	byKey := map[string][]owner{}
	for _, o := range outs {
		s := specs[o.req.Spec]
		ow := owner{o.traceID, o.start, o.end}
		byKey[s.Hash] = append(byKey[s.Hash], ow)
		if o.job != nil {
			k := resultKey(s.Hash, o.job.Params)
			byKey[k] = append(byKey[k], ow)
		}
	}
	find := func(sp span) string {
		best := owner{start: -1}
		for _, ow := range byKey[sp.Key] {
			if ow.start <= sp.Start && sp.end() <= ow.end && ow.start > best.start {
				best = ow
			}
		}
		return best.id
	}
	for i := range spans {
		if spans[i].Trace == "" && spans[i].Kind != string(store.KindCheckpoint) {
			spans[i].Trace = find(spans[i])
		}
	}
	missing := 0
	for i := range spans {
		sp := &spans[i]
		if sp.Trace == "" && sp.Kind == string(store.KindCheckpoint) {
			for _, m := range spans {
				if m.meta != nil && m.Start >= sp.Start && bytes.Contains(m.meta, []byte(sp.Key)) {
					sp.Trace = m.Trace
					break
				}
			}
		}
		if sp.Trace == "" {
			missing++
		}
	}
	return missing
}

// clientSpans adds each request's client-side span and the job spans
// its response reports, all under the request's trace id.
func clientSpans(outs []outcome) []span {
	var spans []span
	for _, o := range outs {
		spans = append(spans, span{Trace: o.traceID, Name: "client", Kind: o.req.Op, Bytes: o.bytes, Start: o.start, Dur: o.latency()})
		if o.job == nil {
			continue
		}
		for _, js := range o.job.Spans {
			spans = append(spans, span{Trace: o.job.TraceID, Name: js.Name, Parent: "handler", Start: o.start, Dur: time.Duration(js.Ms * 1e6)})
		}
	}
	return spans
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
