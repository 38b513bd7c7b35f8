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
// root-to-leaf, each followed by a burst of sons, then the full trace
// twice more — the session-frame hit, adopt and reload paths all fire,
// the same access pattern the solver's limit checks and expand produce.
// The high nibbles of the event bytes pick how each evaluation runs:
// View, ViewSon on the trace's parent and last event, Eval, Keep of a
// View, or KeepIn of a View into one shared Arena. A view is held to
// Apply at its call, since the session's next call may overwrite it; an
// owned result is held to Apply again after every later call, so a Keep
// or KeepIn that leaves anything aliased shows.
func FuzzEvalMatchesInterpreter(f *testing.F) {
	f.Add([]byte{0, 4}, []byte{0, 0, 1, 3})
	f.Add([]byte{1, 7, 3, 9}, []byte{1, 3, 1, 4, 2, 0})
	f.Add([]byte{0, 11, 5, 6}, []byte{0, 1, 0, 2})
	f.Add([]byte{2}, []byte{})
	f.Add([]byte{0, 11, 4, 9, 3}, []byte{0x10, 0x21, 0x30, 0x03, 0x12, 0x34, 0x20, 0x01})
	f.Add([]byte{0}, []byte{0x30, 0x10, 0x20, 0x30, 0x11, 0x22})
	f.Add([]byte{1, 7, 3, 9}, []byte{0x41, 0x43, 0x11, 0x44, 0x42, 0x40})
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
		eval := func(tr trace.Trace) {
			mode := 0
			if len(events) > 0 {
				mode = int(events[calls%len(events)]>>4) % 5
			}
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
