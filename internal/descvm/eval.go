package descvm

import (
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// frame is the mutable state of one evaluation: the register file, the
// per-register scratch buffers the specialized opcodes write through,
// and the channel histories of its base trace. A frame starts at ⊥ with
// empty histories and moves from base to base through their common
// spine ancestor (see frame.rebase), so a goroutine evaluating
// neighbours in the §3.3 tree — the breadth-first search's access
// pattern — pays a push or a pop per step instead of a walk of the
// whole trace.
type frame struct {
	regs     []seq.Seq
	scratch  [][]value.Value
	chanVals [][]value.Value // per channel-table index, history of base(+push)
	base     trace.Trace     // the trace whose histories chanVals holds
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

// Eval applies the compiled function to t, returning a Tuple the caller
// owns (components never alias frame state).
func (s *Session) Eval(t trace.Trace) fn.Tuple { return s.Keep(s.View(t)) }

// View applies the compiled function to t and returns a view: a Tuple
// whose components may alias the session's frame and scratch buffers,
// valid only until the session's next call. A caller that compares the
// value and drops it — the search's limit check — pays no allocation;
// one that retains it copies it with Keep.
func (s *Session) View(t trace.Trace) fn.Tuple {
	if n := t.Len(); n > 0 {
		return s.ViewSon(t.Take(n-1), t.Last())
	}
	s.p.exec(s.fr.rebase(s.p, trace.Empty), 0, 0, false)
	return s.output()
}

// ViewSon is View(u·e) without building u·e: the session rebases its
// frame onto u, pushes e, runs the program and pops e again, so the
// trace node for u·e is built only for a son the caller admits.
//
// A single-channel projection skips the push and the dispatch: its
// answer is the cached history, extended by e when e lands on the
// channel — appended past the history's end and truncated off again, so
// the view still sees it until the next call reuses the slot.
func (s *Session) ViewSon(u trace.Trace, e trace.Event) fn.Tuple {
	n := u.Len()
	p := s.p
	fr := s.fr.rebase(p, u)
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
	fr.push(ci, e)
	p.exec(fr, n+1, 0, false)
	fr.pop(ci)
	return s.output()
}

// SonLeq is the §3.3 edge check f(u·e) ⊑ bound for a node u whose own
// value is below the bound, f(u) ⊑ bound: the caller's precondition,
// under which its verdict is ViewSon(u, e).Leq(bound). An event changes
// only the components whose cones read its channel, and every other
// component of f(u·e) is f(u)'s, below the bound already. So SonLeq
// pushes e on the frame based at u, runs only the instructions e's
// channel needs, and compares only the components they compute. An ω
// component, whose approximation grows with every event, is reached by
// all, including an event on a channel the program does not read.
//
// With full set, an admitted son's view is completed by running the
// remaining instructions, in program order after the reached ones, and
// returned as ViewSon would return it; otherwise the view is nil. A
// single-channel projection keeps ViewSon's fast path.
func (s *Session) SonLeq(u trace.Trace, e trace.Event, bound fn.Tuple, full bool) (fn.Tuple, bool) {
	p := s.p
	if p.soloChan >= 0 {
		v := s.ViewSon(u, e)
		ok := v.Leq(bound)
		if !ok || !full {
			v = nil
		}
		return v, ok
	}
	if len(bound) != len(p.outs) {
		return nil, false // tuples of different widths are never ordered
	}
	n := u.Len()
	fr := s.fr.rebase(p, u)
	ci := p.chanIdx(e.Ch)
	bit := chanBit(ci)
	fr.push(ci, e)
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

// push appends e's value to the history of channel-table index ci, and
// pop removes the last value of that history again; both ignore a
// channel outside the table (ci < 0).
func (fr *frame) push(ci int, e trace.Event) {
	if ci >= 0 {
		fr.chanVals[ci] = append(fr.chanVals[ci], e.Val)
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

// rebase moves the frame to base u, through the common spine ancestor
// of its base and u, and returns it: it pops its base's events down to
// that ancestor, truncating their channels' histories, and pushes u's
// events past it, oldest first. The search's bases drift by O(1) edits
// — a node's expansion base extends its limit-check base by one event,
// and consecutive nodes of one level are spine siblings — so a step
// costs a push or a pop, and a move to a cousin costs the walk to the
// common ancestor, not a reload of the whole trace. Traces on separate
// spines share only ⊥, so a move between content-equal copies walks
// both whole: a full reload, and still correct.
func (fr *frame) rebase(p *Prog, u trace.Trace) *frame {
	from, to := fr.base, u
	for !from.Same(to) {
		if from.Len() >= to.Len() {
			fr.pop(p.chanIdx(from.Last().Ch))
			from = from.Take(from.Len() - 1)
		} else {
			to = to.Take(to.Len() - 1)
		}
	}
	fr.pushPast(p, u, to.Len())
	fr.base = u
	return fr
}

// pushPast pushes the events of u past its length-n prefix, oldest
// first.
func (fr *frame) pushPast(p *Prog, u trace.Trace, n int) {
	if u.Len() > n {
		fr.pushPast(p, u.Take(u.Len()-1), n)
		e := u.Last()
		fr.push(p.chanIdx(e.Ch), e)
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
