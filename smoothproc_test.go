package smoothproc_test

import (
	"context"
	"errors"
	"testing"

	"smoothproc"
)

// TestFacadeQuickstart exercises the documented public-API tour: build
// the dfm description through the facade, enumerate, and cross-check
// operationally — the package-doc example, as a test.
func TestFacadeQuickstart(t *testing.T) {
	dfm := smoothproc.Combine("dfm",
		smoothproc.MustNewDescription("even",
			smoothproc.OnChan(smoothproc.Even, "d"), smoothproc.ChanFn("b")),
		smoothproc.MustNewDescription("odd",
			smoothproc.OnChan(smoothproc.Odd, "d"), smoothproc.ChanFn("c")),
		smoothproc.MustNewDescription("envB",
			smoothproc.ChanFn("b"), smoothproc.ConstTraceFn(smoothproc.SeqOfInts(0))),
		smoothproc.MustNewDescription("envC",
			smoothproc.ChanFn("c"), smoothproc.ConstTraceFn(smoothproc.SeqOfInts(1))),
	)
	problem := smoothproc.NewProblem(dfm, map[string][]smoothproc.Value{
		"b": smoothproc.Ints(0), "c": smoothproc.Ints(1), "d": smoothproc.Ints(0, 1),
	}, 4)
	result := smoothproc.Enumerate(context.Background(), problem)
	if result.Solutions.Len() != 6 {
		t.Fatalf("solutions = %d, want 6", result.Solutions.Len())
	}

	spec := smoothproc.Spec{Name: "dfm", Procs: []smoothproc.Proc{
		smoothproc.Feeder("envB", "b", smoothproc.Int(0)),
		smoothproc.Feeder("envC", "c", smoothproc.Int(1)),
		{Name: "dfm", Body: func(c *smoothproc.Ctx) {
			for {
				_, v, ok := c.RecvAny("b", "c")
				if !ok {
					return
				}
				if !c.Send("d", v) {
					return
				}
			}
		}},
	}}
	quiescent := smoothproc.QuiescentTraces(spec, 20, smoothproc.RealizeOpts{})
	if len(quiescent) != result.Solutions.Len() {
		t.Fatalf("operational %d vs denotational %d", len(quiescent), result.Solutions.Len())
	}
	for _, s := range result.Solutions.Traces() {
		if _, ok := quiescent[s.String()]; !ok {
			t.Errorf("smooth solution %s not operational", s)
		}
	}
}

// TestFacadeValuesAndSequences covers the re-exported constructors.
func TestFacadeValuesAndSequences(t *testing.T) {
	if !smoothproc.T.IsTrue() || !smoothproc.F.IsFalse() {
		t.Error("bit constants wrong")
	}
	p := smoothproc.PairOf(smoothproc.Int(0), smoothproc.Sym("x"))
	if p.Kind().String() != "pair" {
		t.Errorf("pair kind %v", p.Kind())
	}
	s := smoothproc.SeqOf(smoothproc.Bool(true))
	if !s.Equal(smoothproc.SeqOfBools(true)) {
		t.Error("sequence constructors disagree")
	}
	if smoothproc.EmptySeq.Len() != 0 || smoothproc.EmptyTrace.Len() != 0 {
		t.Error("bottoms not empty")
	}
	if len(smoothproc.IntRange(1, 3)) != 3 {
		t.Error("IntRange wrong")
	}
}

// TestFacadeEqlang drives the surface language through the facade.
func TestFacadeEqlang(t *testing.T) {
	prog, err := smoothproc.CompileEqlang(`
alphabet b = {T, F}
depth 3
desc R(b) <- [T]
`)
	if err != nil {
		t.Fatal(err)
	}
	res := smoothproc.Enumerate(context.Background(), prog.Problem())
	if res.Solutions.Len() != 2 {
		t.Errorf("random bit via eqlang: %d solutions", res.Solutions.Len())
	}
}

// TestFacadeErrNotSmooth checks the sentinel error wiring.
func TestFacadeErrNotSmooth(t *testing.T) {
	d := smoothproc.MustNewDescription("copy",
		smoothproc.ChanFn("out"), smoothproc.ChanFn("in"))
	bad := smoothproc.TraceOf(smoothproc.E("out", smoothproc.Int(1)))
	err := d.IsSmoothFinite(bad)
	if !errors.Is(err, smoothproc.ErrNotSmooth) {
		t.Errorf("error %v does not wrap ErrNotSmooth", err)
	}
}

// TestFacadeGens covers the generator re-exports.
func TestFacadeGens(t *testing.T) {
	g := smoothproc.CycleGen("ticks", smoothproc.TraceOf(smoothproc.E("b", smoothproc.T)))
	if g.Prefix(4).Len() != 4 {
		t.Error("CycleGen wrong")
	}
	fg := smoothproc.FiniteGen(smoothproc.TraceOf(smoothproc.E("b", smoothproc.T)))
	if fg.Prefix(9).Len() != 1 {
		t.Error("FiniteGen wrong")
	}
}
