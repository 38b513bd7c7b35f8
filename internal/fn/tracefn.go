package fn

import (
	"fmt"

	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
)

// OmegaPad is how far beyond the input trace's length the finite
// approximation of an ω-constant extends. Soundness of depth-bounded
// comparisons against ω-constants requires every non-ω TraceFn to satisfy
// |component| ≤ |input trace| + Growth with Growth < OmegaPad; the widest
// Growth in the paper's vocabulary is 2 (the prepend "0 2" of the
// Brock-Ackermann process A), so 16 is comfortably conservative. The
// invariant is enforced by CheckTraceFnGrowth in the package tests.
const OmegaPad = 16

// TraceFn is a named continuous function from traces to Tuple (Seq^k).
// Out is k. Support is the set of channels the function reads: for every
// trace t, Apply(t) = Apply(t.Project(Support)). Support is what makes
// Theorem 1's independence, Theorem 2's description constraint (dc), and
// Section 7's "independent of b" conditions checkable syntactically.
//
// Growth bounds component length: every component of Apply(t) has length
// at most |t| + Growth. ω-constants declare Growth = OmegaPad.
type TraceFn struct {
	Name    string
	Out     int
	Support trace.ChanSet
	Growth  int
	Apply   func(trace.Trace) Tuple
	// Omega marks finite ω-approximations (OmegaConstFn and anything
	// built from one): their output grows with the raw input length, so
	// Apply(t) = Apply(t.Project(Support)) holds only up to ⊑, not
	// equality. Support still records the ω-limit's true (empty)
	// dependency — the one Theorem 1 and Section 7 are about — but
	// consumers that need the approximation itself to be determined by
	// its support, such as the solver's Theorem 1 fast path, must check
	// !Omega (see desc.Description.Thm1Eligible).
	Omega bool
	// IR records the combinator tree that built this function so the
	// bytecode backend (package descvm) can lower it; nil means the
	// function is opaque and only Apply is available. See lower.go.
	IR *TraceIR
}

// ChanFn is the paper's convention of using a channel name as a function:
// it maps a trace to the message sequence sent on channel c.
func ChanFn(c string) TraceFn {
	return TraceFn{
		Name:    c,
		Out:     1,
		Support: trace.NewChanSet(c),
		Apply:   func(t trace.Trace) Tuple { return Tuple{t.Channel(c)} },
		IR:      &TraceIR{Kind: IRChan, Chan: c},
	}
}

// OnChan applies a SeqFn to the history of one channel, e.g. even(d).
func OnChan(sf SeqFn, c string) TraceFn {
	return TraceFn{
		Name:    sf.Name + "(" + c + ")",
		Out:     1,
		Support: trace.NewChanSet(c),
		Growth:  sf.Growth,
		Apply:   func(t trace.Trace) Tuple { return Tuple{sf.Apply(t.Channel(c))} },
		IR:      &TraceIR{Kind: IRSeqApply, Sf: sf, Args: []*TraceIR{{Kind: IRChan, Chan: c}}},
	}
}

// OnChans applies a continuous k-ary sequence function to the histories
// of the named channels.
func OnChans(name string, chans []string, growth int, f func([]seq.Seq) seq.Seq) TraceFn {
	cs := append([]string(nil), chans...)
	return TraceFn{
		Name:    name,
		Out:     1,
		Support: trace.NewChanSet(cs...),
		Growth:  growth,
		Apply: func(t trace.Trace) Tuple {
			args := make([]seq.Seq, len(cs))
			for i, c := range cs {
				args[i] = t.Channel(c)
			}
			return Tuple{f(args)}
		},
	}
}

// OnTwoChans applies a BiSeqFn to two channel histories, e.g.
// "b AND c" (Section 4.5) or g(c,b) of the fork (Section 4.6).
func OnTwoChans(bi BiSeqFn, c1, c2 string) TraceFn {
	return TraceFn{
		Name:    bi.Name + "(" + c1 + "," + c2 + ")",
		Out:     1,
		Support: trace.NewChanSet(c1, c2),
		Growth:  bi.Growth,
		Apply:   func(t trace.Trace) Tuple { return Tuple{bi.Apply(t.Channel(c1), t.Channel(c2))} },
		IR: &TraceIR{Kind: IRBiApply, Bi: bi, Args: []*TraceIR{
			{Kind: IRChan, Chan: c1}, {Kind: IRChan, Chan: c2},
		}},
	}
}

// ConstTraceFn ignores its input and returns the constant sequence k —
// the paper's finite constants such as T̄ and "0 2".
func ConstTraceFn(k seq.Seq) TraceFn {
	return TraceFn{
		Name:    k.String(),
		Out:     1,
		Support: trace.ChanSet{},
		Growth:  k.Len(),
		Apply:   func(trace.Trace) Tuple { return Tuple{k} },
		IR:      &TraceIR{Kind: IRConst, Const: k},
	}
}

// OmegaConstFn is the finite approximation of an infinite constant with
// the given period — trues, falses (Section 4.7) and similar. Applied to
// a trace of length n it yields the period repeated to length n +
// OmegaPad, which is a constant function at every fixed depth and
// approximates the ω-constant from below as n grows.
func OmegaConstFn(name string, period seq.Seq) TraceFn {
	return TraceFn{
		Name:    name,
		Out:     1,
		Support: trace.ChanSet{}, // depends only on |t|, not content; see note below
		Growth:  OmegaPad,
		Omega:   true,
		Apply: func(t trace.Trace) Tuple {
			return Tuple{seq.Repeat(period, t.Len()+OmegaPad)}
		},
		IR: &TraceIR{Kind: IROmega, Const: period},
	}
}

// Note on OmegaConstFn's Support: the approximation's value depends on the
// input length but its ω-limit is a true constant; Support records the
// limit's (empty) dependency, which is what Theorem 1 independence and
// Section 7 elimination conditions are about. The approximation is still
// monotone in the trace order, which is all the checkers rely on. The
// Omega flag records the discrepancy so consumers needing the
// approximation itself to be support-determined can opt out.

// ApplySeq post-composes a sequence function with a width-1 trace
// function: t ↦ sf(inner(t)). This is how compound right-hand sides such
// as "0; 2×d" are built: ApplySeq(Prepend0, ApplySeq(Double, ChanFn(d))).
func ApplySeq(sf SeqFn, inner TraceFn) TraceFn {
	if inner.Out != 1 {
		panic("fn: ApplySeq requires a width-1 inner function")
	}
	var ir *TraceIR
	if inner.IR != nil {
		ir = &TraceIR{Kind: IRSeqApply, Sf: sf, Args: []*TraceIR{inner.IR}}
	}
	return TraceFn{
		Name:    sf.Name + "(" + inner.Name + ")",
		Out:     1,
		Support: inner.Support,
		Growth:  sf.Growth + inner.Growth,
		Omega:   inner.Omega,
		Apply:   func(t trace.Trace) Tuple { return Tuple{sf.Apply(inner.Apply(t)[0])} },
		IR:      ir,
	}
}

// ApplyBi combines two width-1 trace functions with a binary sequence
// function: t ↦ bi(a(t), b(t)) — e.g. "b AND c" with arbitrary operand
// expressions.
func ApplyBi(bi BiSeqFn, a, b TraceFn) TraceFn {
	if a.Out != 1 || b.Out != 1 {
		panic("fn: ApplyBi requires width-1 operands")
	}
	var ir *TraceIR
	if a.IR != nil && b.IR != nil {
		ir = &TraceIR{Kind: IRBiApply, Bi: bi, Args: []*TraceIR{a.IR, b.IR}}
	}
	return TraceFn{
		Name:    bi.Name + "(" + a.Name + "," + b.Name + ")",
		Out:     1,
		Support: a.Support.Union(b.Support),
		Growth:  bi.Growth + a.Growth + b.Growth,
		Omega:   a.Omega || b.Omega,
		Apply: func(t trace.Trace) Tuple {
			return Tuple{bi.Apply(a.Apply(t)[0], b.Apply(t)[0])}
		},
		IR: ir,
	}
}

// Pair concatenates trace functions into one of width sum(Out) — the
// paper's mechanism for combining multiple descriptions into one.
func Pair(fns ...TraceFn) TraceFn {
	width := 0
	support := trace.ChanSet{}
	growth := 0
	omega := false
	name := ""
	for i, f := range fns {
		width += f.Out
		support = support.Union(f.Support)
		if f.Growth > growth {
			growth = f.Growth
		}
		omega = omega || f.Omega
		if i > 0 {
			name += ", "
		}
		name += f.Name
	}
	if len(fns) == 1 {
		// Single part: keep the decorated name but delegate Apply
		// directly — no wrapper Tuple is built per application.
		f := fns[0]
		f.Name = "(" + name + ")"
		return f
	}
	local := append([]TraceFn(nil), fns...)
	ir := &TraceIR{Kind: IRPair, Args: make([]*TraceIR, 0, len(local))}
	for _, f := range local {
		if f.IR == nil {
			ir = nil
			break
		}
		ir.Args = append(ir.Args, f.IR)
	}
	return TraceFn{
		Name:    "(" + name + ")",
		Out:     width,
		Support: support,
		Growth:  growth,
		Omega:   omega,
		Apply: func(t trace.Trace) Tuple {
			out := make(Tuple, 0, width)
			for _, f := range local {
				out = append(out, f.Apply(t)...)
			}
			return out
		},
		IR: ir,
	}
}

// ProjectArg precomposes f with projection onto l: t ↦ f(t.Project(l)).
// Because every TraceFn reads only channel histories, precomposing with a
// projection that contains f's support leaves it unchanged; this is used
// to enforce the dc constraint of Theorem 2.
//
// The result keeps f's IR when that IR reads t only through channels in
// l, whose histories projection leaves alone. An IR that reads a channel
// outside l, or whose ω node reads the raw length |t| that projection
// shortens, would compute something else, so the result is then opaque.
func ProjectArg(f TraceFn, l trace.ChanSet) TraceFn {
	var ir *TraceIR
	if f.IR != nil && readsOnly(f.IR, l) {
		ir = f.IR
	}
	return TraceFn{
		Name:    f.Name + "∘π",
		Out:     f.Out,
		Support: l,
		Growth:  f.Growth,
		Apply:   func(t trace.Trace) Tuple { return f.Apply(t.Project(l)) },
		IR:      ir,
	}
}

// readsOnly reports whether ir reads its trace only through the
// histories of channels in l: every IRChan leaf names one, and no
// IROmega node reads the trace's length.
func readsOnly(ir *TraceIR, l trace.ChanSet) bool {
	switch ir.Kind {
	case IRChan:
		return l.Has(ir.Chan)
	case IROmega:
		return false
	}
	for _, a := range ir.Args {
		if !readsOnly(a, l) {
			return false
		}
	}
	return true
}

// IndependentOf reports whether f's declared support avoids all the given
// channels — the paper's "f is independent of b" (Section 7) and the
// disjoint-support hypothesis of Theorem 1.
func (f TraceFn) IndependentOf(chans ...string) bool {
	for _, c := range chans {
		if f.Support.Has(c) {
			return false
		}
	}
	return true
}

// CheckOutputGrowth verifies the declared growth bound on one output,
// out = f.Apply(t) for an input t of length n, for callers that already
// hold it. input renders t, and is called only for the error.
func CheckOutputGrowth(f TraceFn, n int, out Tuple, input func() string) error {
	for i, s := range out {
		if s.Len() > n+f.Growth {
			return fmt.Errorf("fn: %s component %d exceeds growth bound %d on %s", f.Name, i, f.Growth, input())
		}
	}
	return nil
}
