package descvm

import (
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// frame is the mutable state of one evaluation: the register file, the
// per-register scratch buffers the specialized opcodes write through,
// and the channel histories of its base, a node of a trace.Tree. A
// frame starts at ⊥ with empty histories and moves from base to base
// through their common ancestor in the tree (see frame.move), so a
// goroutine evaluating neighbours in the §3.3 tree — the breadth-first
// search's access pattern — pays a push or a pop per step instead of a
// walk of the whole trace.
type frame struct {
	regs     []seq.Seq
	scratch  [][]value.Value
	chanVals [][]value.Value // per channel-table index, history of base(+push)
	// tree and base are the node whose histories chanVals holds.
	tree *trace.Tree
	base trace.ID
	// chanOf maps each event of tree's alphabet to its channel-table
	// index (-1 off the table): looked up once per tree, not per event.
	chanOf []int
}

// Session is a single-goroutine evaluation handle owning one frame, and
// the only way to run a Prog: goroutines sharing one Prog each evaluate
// through a Session of their own. A search evaluating one side
// thousands of times keeps the frame for its whole run. Not safe for
// concurrent use.
type Session struct {
	p  *Prog
	fr frame
	// view is the Tuple header every View, ViewSon and SonLeq returns,
	// its components rewritten by each call.
	view fn.Tuple
}

// NewSession returns a fresh single-goroutine handle for p. The
// register array also holds the view header, so a session costs four
// allocations: itself and its frame's three slices.
func (p *Prog) NewSession() *Session {
	n, c, k := p.nregs, len(p.chans), len(p.outs)
	regs := make([]seq.Seq, n+k)
	return &Session{
		p: p,
		fr: frame{
			regs:     regs[:n:n],
			scratch:  make([][]value.Value, n),
			chanVals: make([][]value.Value, c),
		},
		view: fn.Tuple(regs[n:]),
	}
}

// View applies the compiled function to node u of tree t and returns a
// view: a Tuple whose components may alias the session's frame and
// scratch buffers, valid only until the session's next call. A caller
// that compares the value and drops it — the search's limit check —
// pays no allocation; one that retains it copies it with Keep. The
// frame is left based at u's parent, where the evaluation of u's
// siblings starts.
func (s *Session) View(t *trace.Tree, u trace.ID) fn.Tuple {
	if u != trace.Root {
		parent, e := t.Edge(u)
		return s.ViewSon(t, parent, e)
	}
	s.p.exec(s.fr.move(s.p, t, u), 0, 0, false)
	return s.output()
}

// ViewSon is View of the son of u by alphabet event e, without adding
// that son to the tree: the session moves its frame to u, pushes e,
// runs the program and pops e again, so the tree gets the son only if
// the caller admits it.
//
// A single-channel projection skips the push and the dispatch: its
// answer is the cached history, extended by e when e lands on the
// channel — appended past the history's end and truncated off again, so
// the view still sees it until the next call reuses the slot.
func (s *Session) ViewSon(t *trace.Tree, u trace.ID, e int) fn.Tuple {
	p := s.p
	fr := s.fr.move(p, t, u)
	ci, v := fr.chanOf[e], t.Alphabet()[e].Val
	if p.soloChan >= 0 {
		hist := fr.chanVals[p.soloChan]
		if ci == p.soloChan {
			hist = append(hist, v)
			fr.chanVals[p.soloChan] = hist[:len(hist)-1]
		}
		s.view[0] = seq.Seq(hist)
		return s.view
	}
	fr.push(ci, v)
	p.exec(fr, t.Len(u)+1, 0, false)
	fr.pop(ci)
	return s.output()
}

// SonLeq is the §3.3 edge check f(u·e) ⊑ bound for a node u whose own
// value is below the bound, f(u) ⊑ bound: the caller's precondition,
// under which its verdict is ViewSon(t, u, e).Leq(bound). An event
// changes only the components whose cones read its channel, and every
// other component of f(u·e) is f(u)'s, below the bound already. So
// SonLeq pushes e on the frame based at u, runs only the instructions
// e's channel needs, and compares only the components they compute. An
// ω component, whose approximation grows with every event, is reached by
// all, including an event on a channel the program does not read.
//
// With full set, an admitted son's view is completed by running the
// remaining instructions, in program order after the reached ones, and
// returned as ViewSon would return it; otherwise the view is nil. A
// single-channel projection keeps ViewSon's fast path.
func (s *Session) SonLeq(t *trace.Tree, u trace.ID, e int, bound fn.Tuple, full bool) (fn.Tuple, bool) {
	p := s.p
	if p.soloChan >= 0 {
		v := s.ViewSon(t, u, e)
		ok := v.Leq(bound)
		if !ok || !full {
			v = nil
		}
		return v, ok
	}
	if len(bound) != len(p.outs) {
		return nil, false // tuples of different widths are never ordered
	}
	fr := s.fr.move(p, t, u)
	ci := fr.chanOf[e]
	bit := chanBit(ci)
	n := t.Len(u)
	fr.push(ci, t.Alphabet()[e].Val)
	p.exec(fr, n+1, bit, true)
	ok := true
	for i, r := range p.outs {
		if p.code[r].need&bit != 0 && !fr.regs[r].Leq(bound[i]) {
			ok = false
			break
		}
	}
	var v fn.Tuple
	if ok && full {
		p.exec(fr, n+1, bit, false)
		v = s.output()
	}
	fr.pop(ci)
	return v, ok
}

// output points the view's components at the frame's output registers,
// and returns the view.
func (s *Session) output() fn.Tuple {
	for i, r := range s.p.outs {
		s.view[i] = s.fr.regs[r]
	}
	return s.view
}

// push appends v to the history of channel-table index ci, and pop
// removes the last value of that history again; both ignore a channel
// outside the table (ci < 0).
func (fr *frame) push(ci int, v value.Value) {
	if ci >= 0 {
		fr.chanVals[ci] = append(fr.chanVals[ci], v)
	}
}

func (fr *frame) pop(ci int) {
	if ci >= 0 {
		fr.chanVals[ci] = fr.chanVals[ci][:len(fr.chanVals[ci])-1]
	}
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

// An Arena's chunks double from arenaFirst elements, or the first
// value's size if that is larger, up to arenaChunk.
const (
	arenaFirst = 16
	arenaChunk = 1024
)

// KeepIn is Keep with the copy carved from a's chunks when a is non-nil,
// for a caller that keeps many values at once (the search, keeping the
// f each queued node carries): it pays one allocation per chunk instead
// of two per value, and a chunk stays allocated while any value carved
// from it is reachable.
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
	return make([]T, 0, max(need, min(max(2*cap(chunk), arenaFirst), arenaChunk)))
}

// move moves the frame to base u of tree t, through the common
// ancestor of its base and u, and returns it: it pops its base's events
// down to that ancestor, truncating their channels' histories, and
// pushes u's events past it, oldest first. The search's bases drift by
// O(1) edits — a node's expansion base extends its limit-check base by
// one event, and consecutive nodes of one level are siblings — so a
// step costs a push or a pop, and a move to a cousin costs the walk to
// the common ancestor, not a reload of the whole trace. Content-equal
// nodes at different IDs share only their common ancestor, so a move
// between them walks both paths down to it. A move to another tree
// first empties the frame to ⊥ and maps the new tree's alphabet onto
// the channel table.
func (fr *frame) move(p *Prog, t *trace.Tree, u trace.ID) *frame {
	if t != fr.tree {
		for i := range fr.chanVals {
			fr.chanVals[i] = fr.chanVals[i][:0]
		}
		alpha := t.Alphabet()
		if cap(fr.chanOf) < len(alpha) {
			fr.chanOf = make([]int, len(alpha))
		}
		fr.chanOf = fr.chanOf[:len(alpha)]
		for i, e := range alpha {
			fr.chanOf[i] = p.chanIdx(e.Ch)
		}
		fr.tree, fr.base = t, trace.Root
	}
	if u == fr.base {
		return fr
	}
	// Pop the base's events down to the common ancestor, counting the
	// events of u's path below it, which are then pushed.
	from, to := fr.base, u
	df, dt := t.Len(from), t.Len(to)
	for ; df > dt; df-- {
		from = fr.popTo(t, from)
	}
	k := dt - df
	for ; dt > df; dt-- {
		to, _ = t.Edge(to)
	}
	for ; from != to; k++ {
		from = fr.popTo(t, from)
		to, _ = t.Edge(to)
	}
	fr.pushPath(t, u, k)
	fr.base = u
	return fr
}

// popTo pops node u's event and returns u's parent.
func (fr *frame) popTo(t *trace.Tree, u trace.ID) trace.ID {
	parent, e := t.Edge(u)
	fr.pop(fr.chanOf[e])
	return parent
}

// pushPath pushes the last k events of node u's path, oldest first.
func (fr *frame) pushPath(t *trace.Tree, u trace.ID, k int) {
	if k > 0 {
		parent, e := t.Edge(u)
		fr.pushPath(t, parent, k-1)
		fr.push(fr.chanOf[e], t.Alphabet()[e].Val)
	}
}

// exec runs instructions against the frame's histories: those whose
// need mask meets sel when in is set, and those whose mask misses it
// otherwise — every instruction for the empty sel and in unset. Results
// stay in the frame's registers and scratch buffers, so nothing is
// copied or allocated here (Keep copies). rawLen is the unprojected
// input length |t|, which opOmega's approximation depth depends on
// (fn.OmegaConstFn semantics).
func (p *Prog) exec(fr *frame, rawLen int, sel chanMask, in bool) {
	regs := fr.regs
	for _, ins := range p.code {
		if (ins.need&sel != 0) != in {
			continue
		}
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
}
