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

// fuzzChans and fuzzVals are the fuzz traces' channels and messages,
// including a channel no combinator reads; fuzzAlphabet is every event
// over them, channel-major, the alphabet of the fuzz trees.
var (
	fuzzChans    = []string{"a", "b", "x"}
	fuzzVals     = []value.Value{value.Int(0), value.Int(1), value.Int(2), value.T, value.F}
	fuzzAlphabet = func() []trace.Event {
		var es []trace.Event
		for _, c := range fuzzChans {
			for _, v := range fuzzVals {
				es = append(es, trace.E(c, v))
			}
		}
		return es
	}()
)

// fuzzEvents decodes bytes as (channel, value) pairs, as indices into
// fuzzAlphabet, at most 12 of them.
func fuzzEvents(bs []byte) []int {
	var es []int
	for i := 0; i+1 < len(bs) && len(es) < 12; i += 2 {
		es = append(es, int(bs[i])%len(fuzzChans)*len(fuzzVals)+int(bs[i+1])%len(fuzzVals))
	}
	return es
}

// fuzzTrace is the trace of fuzzEvents(bs).
func fuzzTrace(bs []byte) trace.Trace {
	u := trace.Empty
	for _, e := range fuzzEvents(bs) {
		u = u.Append(fuzzAlphabet[e])
	}
	return u
}

// FuzzEvalMatchesInterpreter holds the VM equal to the direct IR walk:
// for any bytecode-lowerable function and any node of a trace.Tree,
// every evaluation must return exactly fn.TraceFn.Apply of the node's
// trace. Each node of a fuzzed path is evaluated root-to-leaf, each
// followed by a burst of its sons — the access pattern the solver's
// limit checks and expand produce — and then the session jumps between
// ancestors, descendants, cousins, an unrelated node, a content-equal
// path at other IDs and the same path in another tree, so every walk
// through a common ancestor runs, down to ⊥, and so does a move between
// trees. The high nibbles of the event bytes pick how each evaluation
// runs: View, ViewSon on the node's parent and last event, Eval, Keep
// of a View, KeepIn of a View into one shared Arena, or the sliced edge
// check SonLeq, with or without the full view. A view is held to Apply
// at its call, since the session's next call may overwrite it; an owned
// result is held to Apply again after every later call, so a Keep or
// KeepIn that leaves anything aliased shows. The edge check gets a
// bound above f of the parent — each component f(u)'s, f(u·e)'s, or
// f(u)'s extended by a value — and its verdict must be f(u·e) ⊑ bound,
// its full view f(u·e).
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
		eval := func(tree *trace.Tree, id trace.ID) {
			mode := pick(calls) % 7
			calls++
			tr := tree.Trace(id)
			want := tf.Apply(tr)
			var got fn.Tuple
			switch {
			case mode == 1 && id != trace.Root:
				parent, e := tree.Edge(id)
				got = s.ViewSon(tree, parent, e)
			case mode == 2:
				got = s.Keep(s.View(tree, id))
				kept = append(kept, owned{tr, got, want})
			case mode == 3:
				got = s.Eval(tr)
				kept = append(kept, owned{tr, got, want})
			case mode == 4:
				got = s.KeepIn(s.View(tree, id), &arena)
				kept = append(kept, owned{tr, got, want})
			case mode >= 5 && id != trace.Root:
				parent, e := tree.Edge(id)
				fu := tf.Apply(tree.Trace(parent))
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
				v, ok := s.SonLeq(tree, parent, e, bound, full)
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
				got = s.View(tree, id)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: call %d (mode %d) on %s:\ncompiled    %v\ninterpreted %v\n%s",
					tf.Name, calls, mode, tr, got, want, p.Disasm())
			}
		}
		tree := trace.NewTree(fuzzAlphabet)
		path := func(from trace.ID, es ...int) trace.ID {
			for _, e := range es {
				from = tree.Add(from, e)
			}
			return from
		}
		// The sons: (a,1), (a,2), (b,F) and (x,0).
		sons := []int{1, 2, 9, 10}
		es := fuzzEvents(events)
		u := trace.Root
		for i := 0; ; i++ {
			eval(tree, u)
			for _, e := range sons {
				eval(tree, path(u, e))
			}
			if i == len(es) {
				break
			}
			u = path(u, es[i])
		}
		eval(tree, u)
		eval(tree, u)
		half := u
		for range len(es) - len(es)/2 {
			half, _ = tree.Edge(half)
		}
		copied := path(trace.Root, es...)
		copiedHalf := path(trace.Root, es[:len(es)/2]...)
		other := trace.NewTree(fuzzAlphabet)
		otherU := trace.Root
		for _, e := range es {
			otherU = other.Add(otherU, e)
		}
		type jump struct {
			tree *trace.Tree
			id   trace.ID
		}
		jumps := []jump{
			{tree, u}, {tree, copied}, {tree, half}, {tree, copiedHalf}, {tree, trace.Root},
			{tree, path(u, sons[0], sons[2])},
			{tree, path(half, sons[3], sons[1])},
			{tree, path(trace.Root, fuzzEvents(ops)...)},
			{other, otherU},
		}
		for k := range events {
			j := jumps[int(events[k])%len(jumps)]
			eval(j.tree, j.id)
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
