package descvm

import (
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// frame is the mutable state of one evaluation: the register file, the
// per-register scratch buffers the specialized opcodes write through,
// and the incrementally maintained channel histories of a cached base
// trace. Frames belong to a Session, so a goroutine repeatedly
// evaluating neighbours of the same parent — the breadth-first search's
// access pattern — finds its frame warm and extends the histories in
// O(1) instead of re-walking the trace spine.
type frame struct {
	regs     []seq.Seq
	scratch  [][]value.Value
	chanVals [][]value.Value // per channel-table index, history of base(+push)
	events   []trace.Event   // reusable buffer for full spine loads

	base      trace.Trace // the trace whose histories chanVals holds
	baseValid bool
}

// load rebuilds the frame's channel histories for base: one walk of the
// spine, distributing events to per-channel buffers.
func (p *Prog) load(fr *frame, base trace.Trace) {
	for i := range fr.chanVals {
		fr.chanVals[i] = fr.chanVals[i][:0]
	}
	fr.events = base.AppendEvents(fr.events[:0])
	for _, e := range fr.events {
		if ci := p.chanIdx(e.Ch); ci >= 0 {
			fr.chanVals[ci] = append(fr.chanVals[ci], e.Val)
		}
	}
	fr.base = base
	fr.baseValid = true
}

// Session is a single-goroutine evaluation handle owning two dedicated
// frames, and the only way to run a Prog: goroutines sharing one Prog
// each evaluate through a Session of their own. A search evaluating one
// side thousands of times keeps both frames' base caches for its whole
// run. Two frames because the breadth-first search alternates between
// two bases per node: the limit check evaluates at the node (base = its
// parent's level) and the expansion evaluates the node's sons (base =
// the node); with a single frame each alternation would re-walk a
// spine, with two both bases stay warm. Not safe for concurrent use.
type Session struct {
	p        *Prog
	fr, prev *frame // most- and second-most-recently used
	// view is the Tuple header every View and ViewSon returns, its
	// components rewritten by each call.
	view fn.Tuple
}

// NewSession returns a fresh single-goroutine handle for p. The
// session and both frames are one allocation, and each kind of frame
// slice is carved from one backing array shared by the two frames — the
// register array also holds the view header — so a session costs four
// allocations.
func (p *Prog) NewSession() *Session {
	blk := new(struct {
		s        Session
		fr, prev frame
	})
	n, c, k := p.nregs, len(p.chans), len(p.outs)
	regs := make([]seq.Seq, 2*n+k)
	scratch := make([][]value.Value, 2*n)
	chanVals := make([][]value.Value, 2*c)
	blk.fr = frame{regs: regs[:n:n], scratch: scratch[:n:n], chanVals: chanVals[:c:c]}
	blk.prev = frame{regs: regs[n : 2*n : 2*n], scratch: scratch[n:], chanVals: chanVals[c:]}
	blk.s = Session{p: p, fr: &blk.fr, prev: &blk.prev, view: fn.Tuple(regs[2*n:])}
	return &blk.s
}

// Eval applies the compiled function to t, returning a Tuple the caller
// owns (components never alias frame state).
func (s *Session) Eval(t trace.Trace) fn.Tuple { return s.Keep(s.View(t)) }

// View applies the compiled function to t and returns a view: a Tuple
// whose components may alias the session's frames and scratch buffers,
// valid only until the session's next View, ViewSon or Eval. A caller
// that compares the value and drops it — the search's edge and limit
// checks — pays no allocation; one that retains it copies it with Keep.
func (s *Session) View(t trace.Trace) fn.Tuple {
	if n := t.Len(); n > 0 {
		return s.ViewSon(t.Take(n-1), t.Last())
	}
	s.p.exec(s.rebase(trace.Empty, -1), 0, s.view)
	return s.view
}

// ViewSon is View(u·e) without building u·e: the session rebases a
// frame onto u, pushes e, runs the program and pops e again. The
// search's edge check f(u·e) ⊑ g(u) thus allocates nothing, and the
// trace node for u·e is built only for a son the check admits.
//
// A single-channel projection skips the push and the dispatch: its
// answer is the cached history, extended by e when e lands on the
// channel — appended past the history's end and truncated off again, so
// the view still sees it until the next call reuses the slot.
func (s *Session) ViewSon(u trace.Trace, e trace.Event) fn.Tuple {
	n := u.Len()
	fr := s.rebase(u, n)
	p := s.p
	ci := p.chanIdx(e.Ch)
	if p.soloChan >= 0 {
		hist := fr.chanVals[p.soloChan]
		if ci == p.soloChan {
			hist = append(hist, e.Val)
			fr.chanVals[p.soloChan] = hist[:len(hist)-1]
		}
		s.view[0] = seq.Seq(hist)
		return s.view
	}
	if ci >= 0 {
		fr.chanVals[ci] = append(fr.chanVals[ci], e.Val)
	}
	p.exec(fr, n+1, s.view)
	if ci >= 0 {
		fr.chanVals[ci] = fr.chanVals[ci][:len(fr.chanVals[ci])-1]
	}
	return s.view
}

// Keep copies a view into a Tuple the caller owns: the non-stable
// components share one fresh backing array, while table constants
// (stable registers) are immutable and stay shared, exactly as the
// interpreter's ConstTraceFn shares its k. v must be a view this
// session returned and its next call has not yet invalidated.
func (s *Session) Keep(v fn.Tuple) fn.Tuple { return s.KeepIn(v, nil) }

// Arena holds the chunks KeepIn carves kept values from. The zero Arena
// is ready to use.
type Arena struct {
	comps []seq.Seq
	vals  []value.Value
}

// arenaChunk caps the length of an Arena's chunks, which double from
// the first value's size.
const arenaChunk = 1024

// KeepIn is Keep with the copy carved from a's chunks when a is non-nil,
// for a caller that keeps many values at once (a decoded checkpoint
// recomputing the f its queued nodes carry): it pays one allocation per
// chunk instead of two per value, and a chunk stays allocated while any
// value carved from it is reachable.
func (s *Session) KeepIn(v fn.Tuple, a *Arena) fn.Tuple {
	p := s.p
	total := 0
	for i, r := range p.outs {
		if !p.stable[r] {
			total += len(v[i])
		}
	}
	var out fn.Tuple
	var backing []value.Value
	if a == nil {
		out, backing = make(fn.Tuple, len(v)), make([]value.Value, total)
	} else {
		a.comps, a.vals = reserve(a.comps, len(v)), reserve(a.vals, total)
		c, n := len(a.comps), len(a.vals)
		a.comps, a.vals = a.comps[:c+len(v)], a.vals[:n+total]
		out, backing = a.comps[c:c+len(v):c+len(v)], a.vals[n:n+total:n+total]
	}
	o := 0
	for i, r := range p.outs {
		c := v[i]
		if p.stable[r] {
			out[i] = c
			continue
		}
		dst := backing[o : o+len(c) : o+len(c)]
		copy(dst, c)
		out[i] = seq.Seq(dst)
		o += len(c)
	}
	return out
}

// reserve returns chunk if it has room for need more elements, and a
// fresh chunk otherwise. It never returns nil, so a kept value with no
// components is an empty Tuple, as Keep's is, not a nil one.
func reserve[T any](chunk []T, need int) []T {
	if chunk != nil && cap(chunk)-len(chunk) >= need {
		return chunk
	}
	return make([]T, 0, max(need, min(2*cap(chunk), arenaChunk)))
}

// rebase returns a frame whose base is parent (of length n; n < 0 means
// parent is ⊥ and the input itself is ⊥), promoting it to most recently
// used.
//
// The frame caches key on the input's parent: a full spine walk happens
// only when the parent changes, so evaluating all sons u·e of one node,
// or sibling nodes u1, u2 of one parent in BFS order, costs one walk per
// parent group plus an O(1) push/pop per evaluation.
//
// The search's bases drift by O(1) edits — a node's expansion base
// extends its limit-check base by one event, and consecutive nodes of
// one level are spine siblings — so before paying a full load the
// session tries to adopt the new base by an O(1) push/pop on a frame it
// already has. prev is tried first for adoption: in the steady BFS
// rhythm fr holds the parent-level base the very next evaluation needs
// again, and morphing prev instead keeps it parked there.
func (s *Session) rebase(parent trace.Trace, n int) *frame {
	switch {
	case s.fr.matches(parent, n):
	case s.prev.matches(parent, n), s.prev.adopt(s.p, parent, n):
		s.fr, s.prev = s.prev, s.fr
	case s.fr.adopt(s.p, parent, n):
	default:
		s.fr, s.prev = s.prev, s.fr
		s.p.load(s.fr, parent)
	}
	return s.fr
}

// matches reports whether the frame's cached base is parent (whose
// length the caller supplies as n; n < 0 means parent is ⊥).
func (fr *frame) matches(parent trace.Trace, n int) bool {
	if n < 0 {
		n = 0
	}
	return fr.baseValid && fr.base.Len() == n && parent.Equal(fr.base)
}

// adopt rebases the frame onto parent when an O(1) edit gets it there:
// parent extends the base by one event, or is its spine sibling (same
// parent, different last event). The prefix comparisons are pointer
// hits on shared spines, so a failed adopt is cheap too. n is parent's
// length as in matches.
func (fr *frame) adopt(p *Prog, parent trace.Trace, n int) bool {
	if !fr.baseValid || n <= 0 {
		return false
	}
	bn := fr.base.Len()
	switch bn {
	case n - 1:
		if !parent.Take(n - 1).Equal(fr.base) {
			return false
		}
	case n:
		if !parent.Take(n - 1).Equal(fr.base.Take(n - 1)) {
			return false
		}
		old := fr.base.Last()
		if ci := p.chanIdx(old.Ch); ci >= 0 {
			vs := fr.chanVals[ci]
			fr.chanVals[ci] = vs[:len(vs)-1]
		}
	default:
		return false
	}
	e := parent.Last()
	if ci := p.chanIdx(e.Ch); ci >= 0 {
		fr.chanVals[ci] = append(fr.chanVals[ci], e.Val)
	}
	fr.base = parent
	return true
}

// exec runs the instruction sequence against the frame's loaded
// histories and points out's components at the output registers: out is
// the session's view header, so nothing is copied or allocated here
// (Keep copies). rawLen is the unprojected input length |t|, which
// opOmega's approximation depth depends on (fn.OmegaConstFn semantics).
func (p *Prog) exec(fr *frame, rawLen int, out fn.Tuple) {
	regs := fr.regs
	for _, ins := range p.code {
		switch ins.op {
		case opChan:
			regs[ins.dst] = seq.Seq(fr.chanVals[ins.a])
		case opConst:
			regs[ins.dst] = p.consts[ins.a]
		case opOmega:
			period := p.consts[ins.a]
			if len(period) == 0 {
				regs[ins.dst] = seq.Empty
				continue
			}
			n := rawLen + fn.OmegaPad
			buf := fr.scratch[ins.dst]
			if cap(buf) < n {
				buf = make([]value.Value, n)
			}
			buf = buf[:n]
			for i := range buf {
				buf[i] = period[i%len(period)]
			}
			fr.scratch[ins.dst] = buf
			regs[ins.dst] = seq.Seq(buf)
		case opFilter:
			pred := p.preds[ins.a]
			buf := fr.scratch[ins.dst][:0]
			for _, v := range regs[ins.b] {
				if pred(v) {
					buf = append(buf, v)
				}
			}
			fr.scratch[ins.dst] = buf
			regs[ins.dst] = seq.Seq(buf)
		case opMap:
			f := p.maps[ins.a]
			buf := fr.scratch[ins.dst][:0]
			for _, v := range regs[ins.b] {
				buf = append(buf, f(v))
			}
			fr.scratch[ins.dst] = buf
			regs[ins.dst] = seq.Seq(buf)
		case opTakeWhile:
			pred := p.preds[ins.a]
			src := regs[ins.b]
			n := 0
			for n < len(src) && pred(src[n]) {
				n++
			}
			// Aliases src, like every view component; Keep copies it
			// before anything retains it.
			regs[ins.dst] = src[:n]
		case opPrepend:
			buf := fr.scratch[ins.dst][:0]
			buf = append(buf, p.consts[ins.a]...)
			buf = append(buf, regs[ins.b]...)
			fr.scratch[ins.dst] = buf
			regs[ins.dst] = seq.Seq(buf)
		case opZip:
			f := p.zips[ins.a]
			a, b := regs[ins.b], regs[ins.c]
			n := min(len(a), len(b))
			buf := fr.scratch[ins.dst][:0]
			for i := 0; i < n; i++ {
				buf = append(buf, f(a[i], b[i]))
			}
			fr.scratch[ins.dst] = buf
			regs[ins.dst] = seq.Seq(buf)
		case opSeqCall:
			regs[ins.dst] = p.seqfns[ins.a].Apply(regs[ins.b])
		case opBiCall:
			regs[ins.dst] = p.bifns[ins.a].Apply(regs[ins.b], regs[ins.c])
		}
	}

	for i, r := range p.outs {
		out[i] = regs[r]
	}
}
