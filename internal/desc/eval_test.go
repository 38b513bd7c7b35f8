package desc

import (
	"testing"

	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

func evalTestDesc() Description {
	return Combine("dfm",
		MustNew("even", fn.OnChan(fn.Even, "d"), fn.ChanFn("b")),
		MustNew("odd", fn.OnChan(fn.Odd, "d"), fn.ChanFn("c")),
	)
}

func evalTestTraces() []trace.Trace {
	base := trace.Of(
		trace.E("b", value.Int(0)), trace.E("d", value.Int(0)),
		trace.E("c", value.Int(1)), trace.E("d", value.Int(1)),
	)
	return base.Prefixes()
}

// TestEvaluatorTransparent: evaluation agrees with direct application
// of both sides on every prefix, interpreted and compiled, single- and
// multi-goroutine, and every call is counted as one application.
func TestEvaluatorTransparent(t *testing.T) {
	d := evalTestDesc()
	traces := evalTestTraces()
	for _, opts := range []EvalOptions{
		{},
		{SingleThreaded: true},
		{Compiled: true},
		{Compiled: true, SingleThreaded: true},
	} {
		e := NewEvaluator(d, opts)
		if e.Compiled() != opts.Compiled {
			t.Fatalf("%+v: Compiled() = %v", opts, e.Compiled())
		}
		for pass := 0; pass < 2; pass++ {
			for _, tr := range traces {
				if !e.F(tr).Equal(d.F.Apply(tr)) {
					t.Errorf("%+v pass %d: F(%s) mismatch", opts, pass, tr)
				}
				if !e.G(tr).Equal(d.G.Apply(tr)) {
					t.Errorf("%+v pass %d: G(%s) mismatch", opts, pass, tr)
				}
			}
		}
		s := e.Snapshot()
		if want := int64(2 * len(traces)); s.FApplies != want || s.GApplies != want {
			t.Errorf("%+v: applies = %d/%d, want %d each (one per call)", opts, s.FApplies, s.GApplies, want)
		}
		if s.CacheHits() != 0 {
			t.Errorf("%+v: %d hits without a carried value", opts, s.CacheHits())
		}
		if !opts.Compiled && (s.FNanos <= 0 || s.GNanos <= 0) {
			t.Errorf("%+v: timers not running: f=%dns g=%dns", opts, s.FNanos, s.GNanos)
		}
	}
}

// TestEvaluatorUnmemoized: the evaluator keeps no memo — every query
// applies the underlying side — and records a hit only when the caller
// reports reading a value it carried.
func TestEvaluatorUnmemoized(t *testing.T) {
	d := evalTestDesc()
	e := NewEvaluator(d, EvalOptions{})
	tr := evalTestTraces()[2]
	for i := 0; i < 3; i++ {
		e.F(tr)
		e.G(tr)
	}
	s := e.Snapshot()
	if s.FApplies != 3 || s.GApplies != 3 {
		t.Errorf("applies = %d/%d, want 3 each", s.FApplies, s.GApplies)
	}
	if s.CacheHits() != 0 {
		t.Errorf("hits = %d, want 0", s.CacheHits())
	}
	e.FHit()
	e.GHit()
	e.GHit()
	s = e.Snapshot()
	if s.FHits != 1 || s.GHits != 2 || s.CacheMisses() != 6 {
		t.Errorf("after carried reads: hits f=%d g=%d misses %d, want 1, 2 and 6", s.FHits, s.GHits, s.CacheMisses())
	}
}

// TestEvaluatorSeedSnapshot: seeding pins the counters to exactly the
// given values whatever the evaluator counted before, on both the
// single-goroutine and the atomic path.
func TestEvaluatorSeedSnapshot(t *testing.T) {
	want := EvalSnapshot{FApplies: 7, GApplies: 5, FHits: 3, GHits: 2}
	for _, single := range []bool{false, true} {
		e := NewEvaluator(evalTestDesc(), EvalOptions{SingleThreaded: single})
		e.F(trace.Empty)
		e.G(trace.Empty)
		e.GHit()
		e.SeedSnapshot(want)
		got := e.Snapshot()
		got.FNanos, got.GNanos = 0, 0
		if got != want {
			t.Errorf("single=%v: seeded snapshot %+v, want %+v", single, got, want)
		}
	}
}

// TestEvaluatorOmegaConst: OmegaConstFn's approximation depends on the
// trace length; repeated evaluation stays exact.
func TestEvaluatorOmegaConst(t *testing.T) {
	d := MustNew("ticks", fn.ChanFn("b"), fn.OmegaConstFn("trues", seq.Of(value.T)))
	e := NewEvaluator(d, EvalOptions{})
	for n := 0; n <= 4; n++ {
		tr := trace.CycleGen("t", trace.Of(trace.E("b", value.T))).Prefix(n)
		for i := 0; i < 2; i++ {
			if !e.G(tr).Equal(d.G.Apply(tr)) {
				t.Errorf("G mismatch at depth %d", n)
			}
		}
	}
}
