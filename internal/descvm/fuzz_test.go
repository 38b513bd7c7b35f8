package descvm

import (
	"testing"

	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// fuzzBuild interprets raw bytes as a tiny stack program over the
// lowerable combinator language: each opcode byte pushes a leaf or
// combines stack entries, and the leftover stack becomes one Pair. This
// gives the fuzzer structural control over the function under test —
// depth, sharing, dead operands — without ever producing an input the
// compiler must refuse.
func fuzzBuild(ops []byte) fn.TraceFn {
	var stack []fn.TraceFn
	pop := func() fn.TraceFn {
		if len(stack) == 0 {
			return fn.ChanFn("a")
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return f
	}
	for _, op := range ops {
		switch op % 12 {
		case 0:
			stack = append(stack, fn.ChanFn("a"))
		case 1:
			stack = append(stack, fn.ChanFn("b"))
		case 2:
			stack = append(stack, fn.ConstTraceFn(seq.OfInts(1, 2, 3)))
		case 3:
			stack = append(stack, fn.OmegaConstFn("trues", seq.OfBools(true)))
		case 4:
			stack = append(stack, fn.ApplySeq(fn.Even, pop()))
		case 5:
			stack = append(stack, fn.ApplySeq(fn.Double, pop()))
		case 6:
			stack = append(stack, fn.ApplySeq(fn.PrependFn(value.Int(0)), pop()))
		case 7:
			stack = append(stack, fn.ApplySeq(fn.UntilF, pop()))
		case 8:
			stack = append(stack, fn.ApplySeq(fn.CountTs, pop()))
		case 9:
			stack = append(stack, fn.ApplyBi(fn.And, pop(), pop()))
		case 10:
			stack = append(stack, fn.ApplyBi(fn.NonStrictAnd, pop(), pop()))
		case 11:
			// Deliberate sharing: duplicate the top so CSE paths run.
			top := pop()
			stack = append(stack, top, top)
		}
	}
	if len(stack) == 0 {
		return fn.ChanFn("a")
	}
	if len(stack) == 1 {
		return stack[0]
	}
	return fn.Pair(stack...)
}

// fuzzTrace decodes the remaining bytes as (channel, value) pairs,
// including events on a channel no combinator reads.
func fuzzTrace(bs []byte) trace.Trace {
	chans := []string{"a", "b", "x"}
	vals := []value.Value{value.Int(0), value.Int(1), value.Int(2), value.T, value.F}
	u := trace.Empty
	for i := 0; i+1 < len(bs) && u.Len() < 12; i += 2 {
		u = u.Append(trace.E(chans[int(bs[i])%len(chans)], vals[int(bs[i+1])%len(vals)]))
	}
	return u
}

// FuzzEvalMatchesInterpreter holds the VM equal to the direct IR walk:
// for any bytecode-lowerable function and any trace, every evaluation
// must return exactly fn.TraceFn.Apply. Each prefix is evaluated
// root-to-leaf, each followed by a burst of sons — the access pattern
// the solver's limit checks and expand produce — and then the session
// jumps between ancestors, descendants, a cousin, an unrelated trace and
// content-equal copies built on a separate spine, so every walk through
// a common ancestor runs, down to ⊥. The high nibbles of the event bytes
// pick how each evaluation runs: View, ViewSon on the trace's parent and
// last event, Eval, Keep of a View, KeepIn of a View into one shared
// Arena, or the sliced edge check SonLeq, with or without the full
// view. A view is held to Apply at its call, since the session's next
// call may overwrite it; an owned result is held to Apply again after
// every later call, so a Keep or KeepIn that leaves anything aliased
// shows. The edge check gets a bound above f of the parent — each
// component f(u)'s, f(u·e)'s, or f(u)'s extended by a value — and its
// verdict must be f(u·e) ⊑ bound, its full view f(u·e).
func FuzzEvalMatchesInterpreter(f *testing.F) {
	f.Add([]byte{0, 4}, []byte{0, 0, 1, 3})
	f.Add([]byte{1, 7, 3, 9}, []byte{1, 3, 1, 4, 2, 0})
	f.Add([]byte{0, 11, 5, 6}, []byte{0, 1, 0, 2})
	f.Add([]byte{2}, []byte{})
	f.Add([]byte{0, 11, 4, 9, 3}, []byte{0x10, 0x21, 0x30, 0x03, 0x12, 0x34, 0x20, 0x01})
	f.Add([]byte{0}, []byte{0x30, 0x10, 0x20, 0x30, 0x11, 0x22})
	f.Add([]byte{1, 7, 3, 9}, []byte{0x41, 0x43, 0x11, 0x44, 0x42, 0x40})
	f.Add([]byte{0, 1, 4, 3, 9, 5}, []byte{0x51, 0x63, 0x50, 0x64, 0x52, 0x61, 0x55, 0x66})
	f.Add([]byte{1, 0, 6, 3, 2}, []byte{0x53, 0x51, 0x60, 0x57, 0x65, 0x52, 0x54})
	f.Fuzz(func(t *testing.T, ops, events []byte) {
		if len(ops) > 32 {
			t.Skip("function too deep for the differential budget")
		}
		tf := fuzzBuild(ops)
		p, ok := Compile(tf)
		if !ok {
			t.Fatalf("%s: fuzz grammar produced a non-lowerable function", tf.Name)
		}
		s := p.NewSession()
		type owned struct {
			tr        trace.Trace
			got, want fn.Tuple
		}
		var kept []owned
		var arena Arena
		calls := 0
		pick := func(k int) int {
			if len(events) == 0 {
				return 0
			}
			return int(events[k%len(events)] >> 4)
		}
		eval := func(tr trace.Trace) {
			mode := pick(calls) % 7
			calls++
			want := tf.Apply(tr)
			var got fn.Tuple
			switch {
			case mode == 1 && tr.Len() > 0:
				got = s.ViewSon(tr.Take(tr.Len()-1), tr.Last())
			case mode == 2:
				got = s.Eval(tr)
				kept = append(kept, owned{tr, got, want})
			case mode == 3:
				got = s.Keep(s.View(tr))
				kept = append(kept, owned{tr, got, want})
			case mode == 4:
				got = s.KeepIn(s.View(tr), &arena)
				kept = append(kept, owned{tr, got, want})
			case mode >= 5 && tr.Len() > 0:
				u := tr.Take(tr.Len() - 1)
				fu := tf.Apply(u)
				bound := make(fn.Tuple, len(fu))
				for i := range bound {
					switch pick(calls+i) % 3 {
					case 1:
						if fu[i].Leq(want[i]) {
							bound[i] = want[i]
							continue
						}
						bound[i] = fu[i]
					case 2:
						bound[i] = append(append(seq.Seq(nil), fu[i]...), value.Int(1))
					default:
						bound[i] = fu[i]
					}
				}
				full := mode == 6
				v, ok := s.SonLeq(u, tr.Last(), bound, full)
				if wantOK := want.Leq(bound); ok != wantOK {
					t.Fatalf("%s: call %d: edge check %s ⊑ %v says %v, want %v\n%s",
						tf.Name, calls, tr, bound, ok, wantOK, p.Disasm())
				}
				if !ok || !full {
					if v != nil {
						t.Fatalf("%s: call %d: edge check returned a view %v it did not complete", tf.Name, calls, v)
					}
					return
				}
				got = v
			default:
				got = s.View(tr)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: call %d (mode %d) on %s:\ncompiled    %v\ninterpreted %v\n%s",
					tf.Name, calls, mode, tr, got, want, p.Disasm())
			}
		}
		u := fuzzTrace(events)
		sons := []trace.Event{
			trace.E("a", value.Int(1)), trace.E("a", value.Int(2)),
			trace.E("b", value.F), trace.E("x", value.Int(0)),
		}
		for _, pre := range u.Prefixes() {
			eval(pre)
			for _, e := range sons {
				eval(pre.Append(e))
			}
		}
		eval(u)
		eval(u)
		copied := trace.FromEvents(u.Events())
		half := u.Take(u.Len() / 2)
		jumps := []trace.Trace{
			u, copied, half, copied.Take(u.Len() / 2), trace.Empty,
			u.Append(sons[0]).Append(sons[2]),
			half.Append(sons[3]).Append(sons[1]),
			fuzzTrace(ops),
		}
		for k := range events {
			eval(jumps[int(events[k])%len(jumps)])
		}
		for _, k := range kept {
			if !k.got.Equal(k.want) {
				t.Fatalf("%s: owned result for %s changed by later calls:\n got %v\nwant %v",
					tf.Name, k.tr, k.got, k.want)
			}
		}
	})
}

// FuzzVerifyNeverRejectsCompiled holds the static verifier sound with
// respect to the compiler: any program Compile produces — any program
// Eval would accept work from — must pass Verify. A rejection here is a
// verifier that drifted stricter than the compiler (or a compiler
// emitting genuinely malformed code, which the differential fuzz above
// would also catch).
func FuzzVerifyNeverRejectsCompiled(f *testing.F) {
	f.Add([]byte{0, 4})
	f.Add([]byte{1, 7, 3, 9})
	f.Add([]byte{0, 11, 5, 6, 2, 9, 10})
	f.Add([]byte{3, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			t.Skip("function too deep for the budget")
		}
		tf := fuzzBuild(ops)
		p, ok := Compile(tf)
		if !ok {
			t.Fatalf("%s: fuzz grammar produced a non-lowerable function", tf.Name)
		}
		if err := Verify(p); err != nil {
			t.Fatalf("%s: verifier rejects a compiled program: %v\n%s", tf.Name, err, p.Disasm())
		}
		// The program must also actually evaluate: Verify accepting a
		// prog Eval would crash on would be vacuous.
		if got := p.NewSession().Eval(fuzzTrace(ops)); got.Width() != tf.Out {
			t.Fatalf("%s: eval width %d, want %d", tf.Name, got.Width(), tf.Out)
		}
	})
}
