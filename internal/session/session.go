// Package session implements resumable solve sessions: a session binds a
// problem identity (the spec hash in the service) to a capture-mode
// solver checkpoint — the classified canonical prefix, the retained
// frontier of depth-bound sons with the f each carries, and the commit
// pointer — so that re-solving the same spec at larger bounds
// deepens the existing search instead of starting cold, and re-solving
// at the same bounds replays the stored result.
//
// On top of the checkpoint the session offers Theorem 5/6 delta-solves:
// when a spec edit is a variable elimination (specvet's eliminable
// verdict), the session's solutions project — per Theorem 5 — onto the
// solutions of the eliminated system, so the edit is answered from
// retained state instead of invalidating it. DeltaCheck is the
// differential guard: it solves the eliminated system fresh and checks
// the projection against it in both directions (Theorem 6 lifting the
// converse), so reuse can never silently change Solutions.
package session

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"smoothproc/internal/desc"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
)

// Options bound one Solve call.
type Options struct {
	// Depth is the requested depth bound. It may not shrink below the
	// session's current depth; equal depth replays, larger depth resumes.
	// 0 means the session's current depth.
	Depth int
	// MaxNodes is the total node budget (0 = unbounded). A truncated
	// session resumes when the budget grows.
	MaxNodes int
	// OnSolution, when non-nil, receives the complete solution stream of
	// the search in canonical BFS order: stored prefix solutions are
	// replayed first, then new solutions arrive as the resumed leg
	// classifies them. Must not block (see solver.Problem.OnSolution).
	OnSolution func(trace.Trace)
}

// Outcome says how a Solve call was answered.
type Outcome int

const (
	// Cold: the first solve of the session, run from the root.
	Cold Outcome = iota
	// Replayed: the stored result already covers the requested bounds.
	Replayed
	// Resumed: the search re-entered BFS from the retained frontier (or
	// pending queue) and classified only the new nodes.
	Resumed
)

func (o Outcome) String() string {
	switch o {
	case Cold:
		return "cold"
	case Replayed:
		return "replayed"
	case Resumed:
		return "resumed"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Session is one resumable solve: a problem, its capture checkpoint and
// the latest result. Safe for concurrent use: Solve calls serialize on
// the session (the checkpoint is single-flight by design) and readers
// see the latest completed leg.
type Session struct {
	mu  sync.Mutex
	key string
	sys desc.System
	p   solver.Problem // bounds track the latest leg

	cp  *solver.Checkpoint
	res solver.Result

	solves  int
	resumes int
	replays int
}

// New builds a session for the given problem. The key identifies the
// problem (the service uses the spec hash); sys is the pre-elimination
// system the problem's description combines, needed for delta-solves
// (pass a zero System if delta-solves are not used).
func New(key string, p solver.Problem, sys desc.System) *Session {
	return &Session{key: key, sys: sys, p: p}
}

// Key returns the session's problem identity.
func (s *Session) Key() string { return s.key }

// Solve answers the requested bounds from the session: cold on first
// use, replayed when the stored result already covers them, resumed from
// the retained frontier otherwise. Resumed legs stay in capture mode, so
// the session remains resumable afterwards; note the capture-mode stats
// caveat in package solver (bound levels are fully expanded, and
// Stats.RetainedSons counts the sons held for the next resume).
func (s *Session) Solve(ctx context.Context, o Options) (solver.Result, Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.cp == nil {
		p := s.p
		if o.Depth > 0 {
			p.MaxDepth = o.Depth
		}
		p.MaxNodes = o.MaxNodes
		p.OnSolution = o.OnSolution
		res, cp := solver.EnumerateCapture(ctx, p)
		p.OnSolution = nil
		s.p = p
		s.cp = cp
		s.res = res
		s.solves++
		return res, Cold, nil
	}

	depth := o.Depth
	if depth == 0 {
		depth = s.cp.MaxDepth()
	}
	if depth < s.cp.MaxDepth() {
		return solver.Result{}, 0, fmt.Errorf("session %s: requested depth %d below the session depth %d (sessions only deepen; start a new session to shrink)",
			s.key, depth, s.cp.MaxDepth())
	}

	deepen := depth > s.cp.MaxDepth()
	moreBudget := s.res.Truncated && (o.MaxNodes == 0 || o.MaxNodes > s.res.Nodes)
	if !deepen && !moreBudget {
		// The stored result covers the request: replay it, re-emitting the
		// canonical solution stream for streaming clients.
		if o.OnSolution != nil {
			for _, t := range s.res.Solutions {
				o.OnSolution(t)
			}
		}
		s.solves++
		s.replays++
		return s.res, Replayed, nil
	}

	if o.OnSolution != nil {
		// Replay the stored prefix; the resume emits only new solutions,
		// which in canonical BFS order all follow the stored ones.
		for _, t := range s.res.Solutions {
			o.OnSolution(t)
		}
	}
	res, err := s.cp.Resume(ctx, solver.ResumeOpts{
		MaxDepth:   depth,
		MaxNodes:   o.MaxNodes,
		OnSolution: o.OnSolution,
	})
	if err != nil {
		return solver.Result{}, 0, err
	}
	s.res = res
	s.solves++
	s.resumes++
	return res, Resumed, nil
}

// Result returns the latest leg's result; ok is false before the first
// Solve. The slices must be treated as read-only.
func (s *Session) Result() (res solver.Result, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res, s.cp != nil
}

// Depth returns the session's current depth bound.
func (s *Session) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cp == nil {
		return s.p.MaxDepth
	}
	return s.cp.MaxDepth()
}

// Nodes returns the commit pointer — nodes classified so far.
func (s *Session) Nodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cp == nil {
		return 0
	}
	return s.cp.Nodes()
}

// FrontierSize returns the retained frontier's node count.
func (s *Session) FrontierSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cp == nil {
		return 0
	}
	return s.cp.FrontierSize()
}

// Counts returns (solves, resumes, replays) so far.
func (s *Session) Counts() (solves, resumes, replays int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.solves, s.resumes, s.replays
}

// System returns the pre-elimination system the session was built with.
func (s *Session) System() desc.System { return s.sys }

// DeltaResult is a delta-solve's answer: the eliminated system and the
// session's solutions projected away from the eliminated channel
// (Theorem 5), deduplicated and in canonical (length, then lexicographic)
// order.
type DeltaResult struct {
	System    desc.System
	Index     int
	Channel   string
	Solutions []trace.Trace
	// Distinct counts the session solutions that survived projection as
	// distinct traces (several originals may project to one).
	Distinct int
	// FromNodes is the session's commit pointer at delta time — the
	// search work the projection reused instead of redoing.
	FromNodes int
}

// Delta answers a Theorem 5/6 variable elimination from retained state:
// the description at idx must define the channel b (desc.Eliminate's
// contract — specvet's eliminable verdict gates this in the service),
// and every session solution projects onto a solution of the eliminated
// system. No search runs; the session's solutions are projected,
// deduplicated and canonically ordered.
//
// The projection is exact only for a complete session (not truncated):
// a truncated session may be missing solutions whose projections the
// eliminated system has. Delta refuses truncated sessions.
func (s *Session) Delta(idx int, b string) (DeltaResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cp == nil {
		return DeltaResult{}, errors.New("session: delta before the first solve")
	}
	if len(s.sys.Descs) == 0 {
		return DeltaResult{}, errors.New("session: delta on a session without a system (built from a bare problem)")
	}
	if s.res.Truncated {
		return DeltaResult{}, fmt.Errorf("session %s: delta on a truncated session would under-report solutions; raise the budget and resume first", s.key)
	}
	elim, err := desc.Eliminate(s.sys, idx, b)
	if err != nil {
		return DeltaResult{}, err
	}
	keep := trace.NewChanSet(s.p.Channels...).Without(b)
	projected := projectDedupe(s.res.Solutions, keep)
	return DeltaResult{
		System:    elim,
		Index:     idx,
		Channel:   b,
		Solutions: projected,
		Distinct:  len(projected),
		FromNodes: s.cp.Nodes(),
	}, nil
}

// projectDedupe projects traces onto keep, deduplicates (several traces
// may share a projection) and sorts canonically: by length, then by the
// rendered trace. Keys are hashes, so buckets are candidate sets
// confirmed with Equal (the repository's hash-key transparency rule).
func projectDedupe(ts []trace.Trace, keep trace.ChanSet) []trace.Trace {
	seen := make(map[trace.Key][]trace.Trace, len(ts))
	out := make([]trace.Trace, 0, len(ts))
	for _, t := range ts {
		p := t.Project(keep)
		k := p.Key()
		dup := false
		for _, c := range seen[k] {
			if c.Equal(p) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[k] = append(seen[k], p)
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Len() != out[j].Len() {
			return out[i].Len() < out[j].Len()
		}
		return out[i].String() < out[j].String()
	})
	return out
}
