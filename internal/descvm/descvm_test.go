package descvm

import (
	"math/rand"
	"strings"
	"testing"

	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// checkAgainstInterpreter compiles f and compares one Session's Eval
// against Apply on every given trace, in order — the order matters,
// because it drives the frames' base caches through their hit, adopt and
// reload paths.
func checkAgainstInterpreter(t *testing.T, f fn.TraceFn, traces []trace.Trace) {
	t.Helper()
	p, ok := Compile(f)
	if !ok {
		t.Fatalf("%s: did not compile", f.Name)
	}
	s := p.NewSession()
	for i, tr := range traces {
		got, want := s.Eval(tr), f.Apply(tr)
		if !got.Equal(want) {
			t.Fatalf("%s: trace %d %s:\ncompiled    %v\ninterpreted %v\n%s",
				f.Name, i, tr, got, want, p.Disasm())
		}
	}
}

// sampleTraces builds a trace set covering ⊥, single events, shared
// parents with many sons (the BFS pattern the frame cache is built
// for), and events on channels the function does not read.
func sampleTraces() []trace.Trace {
	base := trace.Of(
		trace.E("a", value.Int(1)), trace.E("b", value.T),
		trace.E("a", value.Int(2)), trace.E("x", value.Int(9)),
	)
	out := []trace.Trace{trace.Empty}
	for _, p := range base.Prefixes() {
		out = append(out, p)
		for _, e := range []trace.Event{
			trace.E("a", value.Int(3)), trace.E("b", value.F),
			trace.E("x", value.Int(0)), trace.E("a", value.T),
		} {
			out = append(out, p.Append(e))
		}
	}
	return out
}

func TestOpcodes(t *testing.T) {
	cases := []struct {
		name string
		f    fn.TraceFn
		op   string // expected mnemonic in the disassembly
	}{
		{"chan", fn.ChanFn("a"), "chan"},
		{"const", fn.ConstTraceFn(seq.OfInts(7, 8)), "const"},
		{"omega", fn.OmegaConstFn("trues", seq.OfBools(true)), "omega"},
		{"filter", fn.OnChan(fn.Even, "a"), "filter"},
		{"map", fn.ApplySeq(fn.Double, fn.ChanFn("a")), "map"},
		{"takewhile", fn.OnChan(fn.UntilF, "b"), "takewhile"},
		{"prepend", fn.ApplySeq(fn.PrependFn(value.Int(0)), fn.ChanFn("a")), "prepend"},
		{"zip", fn.OnTwoChans(fn.And, "a", "b"), "zip"},
		{"call", fn.ApplySeq(fn.CountTs, fn.ChanFn("b")), "call"},
		{"call2", fn.ApplyBi(fn.NonStrictAnd, fn.ChanFn("a"), fn.ChanFn("b")), "call2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, ok := Compile(tc.f)
			if !ok {
				t.Fatalf("%s did not compile", tc.f.Name)
			}
			if dis := p.Disasm(); !strings.Contains(dis, tc.op) {
				t.Errorf("disassembly lacks %q:\n%s", tc.op, dis)
			}
			checkAgainstInterpreter(t, tc.f, sampleTraces())
		})
	}
}

// TestConstFnOperandDead: a LowerConst in ApplySeq position ignores its
// operand, and the compiler must not emit the dead operand chain.
func TestConstFnOperandDead(t *testing.T) {
	f := fn.ApplySeq(fn.ConstFn(seq.OfInts(5)), fn.ChanFn("a"))
	p, ok := Compile(f)
	if !ok {
		t.Fatal("did not compile")
	}
	if p.NumInstrs() != 1 {
		t.Errorf("want 1 instruction (dead chan operand elided), got:\n%s", p.Disasm())
	}
	checkAgainstInterpreter(t, f, sampleTraces())
}

// TestCSE: reusing the same constructed SeqFn value twice must compute
// it once — constructor identity, via the shared Lower pointer, names
// the function.
func TestCSE(t *testing.T) {
	shared := fn.Pair(fn.ChanFn("a"), fn.OnChan(fn.Even, "a"), fn.OnChan(fn.Even, "a"))
	p, ok := Compile(shared)
	if !ok {
		t.Fatal("did not compile")
	}
	// chan a + one filter: the second even(a) is the same register.
	if p.NumInstrs() != 2 || p.Out() != 3 {
		t.Errorf("want 2 instrs / 3 outs, got %d/%d:\n%s", p.NumInstrs(), p.Out(), p.Disasm())
	}
	checkAgainstInterpreter(t, shared, sampleTraces())

	// Two separate constructor calls are distinct functions even when
	// the closures happen to share a code pointer (hasTag-style): no CSE.
	distinct := fn.Pair(
		fn.ApplySeq(fn.MulAdd(2, 0), fn.ChanFn("a")),
		fn.ApplySeq(fn.MulAdd(3, 1), fn.ChanFn("a")),
	)
	p2, ok := Compile(distinct)
	if !ok {
		t.Fatal("did not compile")
	}
	if p2.NumInstrs() != 3 { // chan a + two maps
		t.Errorf("distinct constructors must not fuse, got:\n%s", p2.Disasm())
	}
	checkAgainstInterpreter(t, distinct, sampleTraces())
}

// TestCompileRefusesOpaque: combinators wrapping whole-trace closures
// carry no IR and must be refused, including transitively. A projection
// is opaque when it changes what its argument reads: a channel outside
// the projection, or an ω constant's raw trace length.
func TestCompileRefusesOpaque(t *testing.T) {
	opaque := fn.OnChans("sum", []string{"a", "b"}, 0, func(args []seq.Seq) seq.Seq {
		return args[0]
	})
	for _, f := range []fn.TraceFn{
		opaque,
		fn.ProjectArg(fn.ChanFn("a"), trace.NewChanSet("b")),
		fn.ProjectArg(fn.OmegaConstFn("trues", seq.OfBools(true)), trace.NewChanSet("a")),
		fn.Pair(fn.ChanFn("a"), opaque),
		fn.ApplySeq(fn.Even, opaque),
	} {
		if _, ok := Compile(f); ok {
			t.Errorf("%s: compiled an opaque function", f.Name)
		}
	}
}

// buildComposite is a deep function exercising every opcode at once,
// with sharing across a Pair — the shape desc.Combine produces for a
// multi-equation system.
func buildComposite() fn.TraceFn {
	evenA := fn.OnChan(fn.Even, "a")
	return fn.Pair(
		fn.ApplySeq(fn.Double, evenA),
		fn.ApplySeq(fn.PrependFn(value.Int(0)), evenA),
		fn.ApplyBi(fn.And, fn.OnChan(fn.RMap, "b"), fn.OmegaConstFn("trues", seq.OfBools(true))),
		fn.ApplySeq(fn.CountTs, fn.ChanFn("b")),
		fn.ConstTraceFn(seq.OfInts(1, 2, 3)),
		fn.OnChan(fn.UntilF, "b"),
	)
}

func TestEvalMatchesInterpreterRandom(t *testing.T) {
	f := buildComposite()
	p, ok := Compile(f)
	if !ok {
		t.Fatal("composite did not compile")
	}
	s := p.NewSession()
	rng := rand.New(rand.NewSource(1))
	chans := []string{"a", "b", "x"}
	vals := []value.Value{value.Int(0), value.Int(1), value.Int(2), value.T, value.F}
	for iter := 0; iter < 200; iter++ {
		u := trace.Empty
		for n := rng.Intn(8); n > 0; n-- {
			u = u.Append(trace.E(chans[rng.Intn(len(chans))], vals[rng.Intn(len(vals))]))
		}
		// Evaluate the parent then a burst of sons, mimicking expand:
		// the first eval may miss the frame caches, the rest hit them.
		evals := []trace.Trace{u}
		for k := 0; k < 3; k++ {
			evals = append(evals, u.Append(trace.E(chans[rng.Intn(len(chans))], vals[rng.Intn(len(vals))])))
		}
		for _, tr := range evals {
			if got, want := s.Eval(tr), f.Apply(tr); !got.Equal(want) {
				t.Fatalf("iter %d, trace %s:\ncompiled    %v\ninterpreted %v", iter, tr, got, want)
			}
		}
	}
}

// TestOutputsAreFresh: the Tuple returned by one Eval must survive any
// number of later Evals unchanged — the search carries results down
// tree edges and into checkpoints, so aliasing frame scratch would
// corrupt them.
func TestOutputsAreFresh(t *testing.T) {
	f := buildComposite()
	p, _ := Compile(f)
	s := p.NewSession()
	t1 := trace.Of(trace.E("a", value.Int(2)), trace.E("b", value.T), trace.E("a", value.Int(4)))
	first := s.Eval(t1)
	want := f.Apply(t1)
	// Hammer the same session's frames with different inputs.
	for i := 0; i < 50; i++ {
		s.Eval(trace.Of(trace.E("a", value.Int(int64(i))), trace.E("b", value.F)))
	}
	if !first.Equal(want) {
		t.Fatalf("earlier result mutated by later evaluations:\n got %v\nwant %v", first, want)
	}
}

// TestOmegaTracksRawLength: the ω-approximation depth follows the raw
// input length, including events on channels the function never reads —
// fn.OmegaConstFn semantics, which Thm1Eligible relies on being exact.
func TestOmegaTracksRawLength(t *testing.T) {
	f := fn.OmegaConstFn("zeros", seq.OfInts(0))
	p, _ := Compile(f)
	s := p.NewSession()
	u := trace.Empty
	for i := 0; i < 5; i++ {
		if got, want := s.Eval(u), f.Apply(u); !got.Equal(want) {
			t.Fatalf("len %d: %v != %v", i, got, want)
		}
		if got := s.Eval(u)[0].Len(); got != u.Len()+fn.OmegaPad {
			t.Fatalf("len %d: approximation depth %d, want %d", i, got, u.Len()+fn.OmegaPad)
		}
		u = u.Append(trace.E("unread", value.Int(int64(i))))
	}
}

// TestSessionMatchesInterpreter drives one Session through the
// breadth-first search's access pattern — each node's limit-check
// evaluation, then a burst over its sons, level by level — so both
// frames adopt, swap and reload, and holds every result to the
// interpreter: the frames are carved from shared arrays and must still
// never see each other's state.
func TestSessionMatchesInterpreter(t *testing.T) {
	f := buildComposite()
	p, ok := Compile(f)
	if !ok {
		t.Fatal("composite did not compile")
	}
	s := p.NewSession()
	events := []trace.Event{
		trace.E("a", value.Int(2)), trace.E("b", value.T),
		trace.E("b", value.F), trace.E("x", value.Int(0)),
	}
	level := []trace.Trace{trace.Empty}
	for depth := 0; depth < 4; depth++ {
		var next []trace.Trace
		for _, u := range level {
			for _, tr := range append([]trace.Trace{u}, u.Append(events[0]), u.Append(events[1]), u.Append(events[2]), u.Append(events[3])) {
				if got, want := s.Eval(tr), f.Apply(tr); !got.Equal(want) {
					t.Fatalf("trace %s:\nsession     %v\ninterpreted %v", tr, got, want)
				}
			}
			for _, e := range events {
				next = append(next, u.Append(e))
			}
		}
		level = next
	}
}

// TestNewSessionAllocs pins a session's set-up cost: the session and
// its two frames are one block, and each kind of frame slice one array.
func TestNewSessionAllocs(t *testing.T) {
	p, ok := Compile(buildComposite())
	if !ok {
		t.Fatal("composite did not compile")
	}
	if got := testing.AllocsPerRun(50, func() { _ = p.NewSession() }); got > 4 {
		t.Fatalf("NewSession allocates %.0f objects, want ≤ 4", got)
	}
}

// TestCompileCachesPastLimit: once progCacheLimit descriptions have been
// compiled, a description compiled for the first time is still cached,
// so compiling it again returns the same program, and the cache never
// holds more than the limit.
func TestCompileCachesPastLimit(t *testing.T) {
	cacheLen := func() int {
		progCache.Lock()
		defer progCache.Unlock()
		return len(progCache.m)
	}
	for i := 0; i <= progCacheLimit; i++ {
		if _, ok := Compile(fn.ChanFn("a")); !ok {
			t.Fatal("a channel read did not compile")
		}
		if n := cacheLen(); n > progCacheLimit {
			t.Fatalf("cache holds %d programs, over the %d limit", n, progCacheLimit)
		}
	}
	f := buildComposite()
	first, ok := Compile(f)
	if !ok {
		t.Fatal("composite did not compile")
	}
	if again, _ := Compile(f); again != first {
		t.Error("a description compiled past the limit was not cached")
	}
	if n := cacheLen(); n > progCacheLimit {
		t.Errorf("cache holds %d programs, over the %d limit", n, progCacheLimit)
	}
}
