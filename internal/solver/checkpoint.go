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

// Checkpoint is the retained state of a capture-mode search: the problem
// (whose bounds track the latest captured leg), the search machinery —
// the sides' VM sessions and the tree — the last captured leg's Result,
// the resume frontier, the pending queue of a truncated run, and the
// tree's shape records, which Encode writes. The Result carries every
// evaluation count so far, and each leg counts on into it.
//
// A Checkpoint is not safe for concurrent use; callers that share one
// (the session subsystem) serialize resumes. The Results its legs
// return are snapshots, safe to read while a later leg runs.
type Checkpoint struct {
	s    *search
	done Result
	// retained is the resume frontier: the admitted sons of done's
	// frontier nodes, each node's consecutive and in commit order, with
	// the f each carries. pending is the unclassified queue remainder of
	// a truncated run.
	retained, pending queue
	// shape holds one shape record per committed node, in commit order
	// (see codec.go): every capture leg appends to it, and a decoded
	// checkpoint starts from the blob's.
	shape   []byte
	resumes int
	finaled bool
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
	if o.Final && !deepen && cp.done.Frontier.Len() > 0 {
		return Result{}, fmt.Errorf("solver: final resume at the captured depth %d would re-probe %d expanded frontier nodes; raise MaxDepth or resume in capture mode", oldDepth, cp.done.Frontier.Len())
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
	var q queue
	q.pushAll(&cp.pending)
	if deepen {
		st.Interior += st.Frontier
		st.Frontier = 0
		st.RetainedSons = 0
		base.Frontier.ids = base.Frontier.ids[:0]
		q.pushAll(&cp.retained)
	}
	captured := cp.s.p
	cp.s.p.MaxDepth = o.MaxDepth
	cp.s.p.MaxNodes = o.MaxNodes
	cp.s.p.OnSolution = o.OnSolution
	res := base
	cp.resumes++
	if o.Final {
		// A Final leg runs the plain search and leaves the captured state
		// — bounds, result, frontier, pending queue and shape records — as
		// it was, so the checkpoint still encodes its last captured leg.
		cp.s.run(ctx, &res, &q, nil)
		cp.s.p = captured
		cp.finaled = true
		return res, nil
	}
	if deepen {
		cp.retained = queue{}
	}
	cp.pending = queue{}
	cp.s.run(ctx, &res, &q, cp)
	cp.s.p.OnSolution = nil
	cp.done = res
	return res, nil
}

// cloneResult deep-copies the lists and per-level stats a resume leg
// appends to, so the stored checkpoint result and the returned one never
// share mutable backing arrays.
func cloneResult(r Result) Result {
	out := r
	out.Solutions.ids = append([]trace.ID(nil), r.Solutions.ids...)
	out.Frontier.ids = append([]trace.ID(nil), r.Frontier.ids...)
	out.DeadLeaves.ids = append([]trace.ID(nil), r.DeadLeaves.ids...)
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
func (cp *Checkpoint) FrontierSize() int { return cp.done.Frontier.Len() }

// PendingSize returns the number of unclassified nodes a truncated
// capture left in its queue.
func (cp *Checkpoint) PendingSize() int { return cp.pending.len() }

// Resumes returns how many resume legs the checkpoint has run.
func (cp *Checkpoint) Resumes() int { return cp.resumes }

// Resumable reports whether another Resume may run (false after Final).
func (cp *Checkpoint) Resumable() bool { return !cp.finaled }
