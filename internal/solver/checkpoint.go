// Checkpointed (resumable) search. A capture-mode solve retains exactly
// the state the §3.3 chain view says a deeper solve needs: the canonical
// BFS order's classified prefix (the Result), the depth-bound nodes'
// admitted sons (the retained frontier, in commit order) and any
// unclassified queue remainder of a truncated run (the pending nodes),
// each son and pending node with the f its parent's edge check carried.
// Resuming re-enters the BFS from that frontier, so the
// already-classified prefix is never re-expanded — and because every
// per-node contribution to the result and the evaluation counters is
// independent of when the node was processed, a resumed search's Result
// is byte-identical to a cold solve at the target bounds.
//
// Capture mode differs from a plain solve in one accounted respect: a
// depth-bound node is fully expanded (its sons are the resume frontier)
// where the plain search probes hasSon and stops at the first witness.
// Classifications are identical — a bound node is Frontier iff it has a
// son — but the bound level's edge counters differ (every candidate
// checked, FrontierWitnesses never counted). That expansion is exactly
// the work a deeper cold solve does at those nodes, which is why a
// capture at depth d resumed in Final mode to depth D > d reproduces the
// cold depth-D fingerprint byte for byte, evaluation counters included
// (the root resume differential suite enforces this across all shipped
// specs). Since a stopped search commits
// exactly the prefix it evaluated, this also holds for a capture that a
// deadline or the node budget cut short.
package solver

import (
	"context"
	"errors"
	"fmt"

	"smoothproc/internal/trace"
)

// frontierEntry is one retained depth-bound node together with its
// admitted sons (each carrying its f), in canonical order — the unit of
// the resume frontier.
type frontierEntry struct {
	node trace.Trace
	sons []node
}

// Checkpoint is the retained state of a capture-mode search: the problem
// (whose bounds track the latest leg), the search machinery — the sides'
// VM sessions and the interned candidates — the last leg's Result, the
// resume frontier, and the pending queue of a truncated run. The Result
// carries every evaluation count so far, and each leg counts on into
// it.
//
// A Checkpoint is not safe for concurrent use; callers that share one
// (the session subsystem) serialize resumes.
type Checkpoint struct {
	s        *search
	done     Result
	frontier []frontierEntry
	pending  []node
	resumes  int
	finaled  bool
}

// EnumerateCapture is Enumerate in capture mode: the same classified
// Result (see the package comment for the bound-level stats caveat),
// plus a Checkpoint that can resume the search at larger bounds.
func EnumerateCapture(ctx context.Context, p Problem) (Result, *Checkpoint) {
	return enumerate(ctx, p, true)
}

// ResumeOpts are the bounds and mode of one resume leg.
type ResumeOpts struct {
	// MaxDepth is the new depth bound; 0 keeps the captured depth. It may
	// never shrink.
	MaxDepth int
	// MaxNodes is the new total node budget (counting the captured
	// prefix); 0 means unbounded. A positive budget must exceed the nodes
	// already classified.
	MaxNodes int
	// Final ends the checkpoint's lineage: the resumed leg treats the new
	// depth bound with the plain hasSon probe, so its Result is
	// byte-identical to a cold plain solve at the target bounds. The
	// checkpoint is no longer resumable afterwards. Without Final the leg
	// stays in capture mode and the checkpoint tracks the deeper state.
	Final bool
	// OnSolution streams this leg's new solutions (the captured prefix's
	// solutions are not re-emitted); see Problem.OnSolution.
	OnSolution func(trace.Trace)
}

// Resume re-enters the BFS from the retained frontier at larger bounds.
// The returned Result covers the whole search from the root — prefix and
// new work — exactly as a cold solve at the new bounds would report it.
// On success the checkpoint (unless Final) describes the deeper search
// and can be resumed again.
//
// A Final resume requires a strictly larger depth while frontier nodes
// are retained: the capture already expanded those nodes in full, so
// re-probing them with hasSon at the same depth would double-count
// bound-level work. (Budget-only Final resumes are fine on captures that
// never reached the depth bound.)
func (cp *Checkpoint) Resume(ctx context.Context, o ResumeOpts) (Result, error) {
	if cp == nil || cp.s == nil {
		return Result{}, errors.New("solver: resume on an empty checkpoint")
	}
	if cp.finaled {
		return Result{}, errors.New("solver: checkpoint was finalized by a Final resume and cannot resume again")
	}
	oldDepth := cp.s.p.MaxDepth
	if o.MaxDepth == 0 {
		o.MaxDepth = oldDepth
	}
	if o.MaxDepth < oldDepth {
		return Result{}, fmt.Errorf("solver: resume depth %d below the captured depth %d (the classified prefix cannot shrink)", o.MaxDepth, oldDepth)
	}
	deepen := o.MaxDepth > oldDepth
	if o.Final && !deepen && len(cp.frontier) > 0 {
		return Result{}, fmt.Errorf("solver: final resume at the captured depth %d would re-probe %d expanded frontier nodes; raise MaxDepth or resume in capture mode", oldDepth, len(cp.frontier))
	}

	// The stored result in continuation accounting: without the skipped
	// node of a truncated capture (it heads the pending queue and will be
	// classified now), and with bound nodes re-filed as interior when the
	// depth bound moves past them.
	base := cloneResult(cp.done)
	st := &base.Stats
	if base.Truncated {
		base.Nodes--
		st.Visited--
		st.Skipped--
		if cp.s.p.CollectVisited && len(base.Visited) > 0 {
			base.Visited = base.Visited[:len(base.Visited)-1]
		}
		base.Truncated = false
		base.Canceled = false
	}
	if o.MaxNodes > 0 && o.MaxNodes <= base.Nodes {
		return Result{}, fmt.Errorf("solver: resume budget %d is already exhausted by the %d captured nodes", o.MaxNodes, base.Nodes)
	}

	// Seed queue, in the order a cold solve at the new depth would hold
	// at this point: the pending remainder first (BFS level order puts
	// every pending node before any frontier son), then the retained
	// frontier's sons in commit order.
	queue := append([]node(nil), cp.pending...)
	if deepen {
		st.Interior += st.Frontier
		st.Frontier = 0
		st.RetainedSons = 0
		base.Frontier = base.Frontier[:0]
		for _, fe := range cp.frontier {
			queue = append(queue, fe.sons...)
		}
		cp.frontier = cp.frontier[:0]
	}
	cp.pending = nil
	cp.s.p.MaxDepth = o.MaxDepth
	cp.s.p.MaxNodes = o.MaxNodes
	cp.s.p.OnSolution = o.OnSolution

	capCp := cp
	if o.Final {
		capCp = nil
	}
	res := base
	cp.s.run(ctx, &res, queue, capCp)
	cp.resumes++
	if o.Final {
		cp.finaled = true
	} else {
		cp.done = res
	}
	cp.s.p.OnSolution = nil
	return res, nil
}

// cloneResult deep-copies the slices and per-level stats a resume leg
// appends to, so the stored checkpoint result and the returned one never
// share mutable backing arrays.
func cloneResult(r Result) Result {
	out := r
	out.Solutions = append([]trace.Trace(nil), r.Solutions...)
	out.Frontier = append([]trace.Trace(nil), r.Frontier...)
	out.DeadLeaves = append([]trace.Trace(nil), r.DeadLeaves...)
	out.Visited = append([]trace.Trace(nil), r.Visited...)
	out.Stats.Levels = append([]LevelStats(nil), r.Stats.Levels...)
	return out
}

// Result returns the checkpoint's stored result — the latest leg's view
// of the whole search. The caller must treat the slices as read-only.
func (cp *Checkpoint) Result() Result { return cp.done }

// Nodes is the commit pointer: how many canonical-order nodes the
// captured search has classified (plus the one skipped node of a
// truncated capture, matching Result.Nodes).
func (cp *Checkpoint) Nodes() int { return cp.done.Nodes }

// MaxDepth returns the depth bound of the latest captured leg.
func (cp *Checkpoint) MaxDepth() int { return cp.s.p.MaxDepth }

// FrontierSize returns the number of retained depth-bound nodes whose
// sons seed a deepening resume.
func (cp *Checkpoint) FrontierSize() int { return len(cp.frontier) }

// PendingSize returns the number of unclassified nodes a truncated
// capture left in its queue.
func (cp *Checkpoint) PendingSize() int { return len(cp.pending) }

// Resumes returns how many resume legs the checkpoint has run.
func (cp *Checkpoint) Resumes() int { return cp.resumes }

// Resumable reports whether another Resume may run (false after Final).
func (cp *Checkpoint) Resumable() bool { return !cp.finaled }
