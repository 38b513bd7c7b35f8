package smoothproc_test

import (
	"context"
	"fmt"
	"sort"

	"smoothproc"
)

// Example reproduces the Brock-Ackermann resolution through the public
// API: the equations have two solutions, only one of which is smooth.
func Example() {
	eqs := smoothproc.Combine("fig4",
		smoothproc.MustNewDescription("eq1",
			smoothproc.OnChan(smoothproc.Even, "c"),
			smoothproc.ConstTraceFn(smoothproc.SeqOfInts(0, 2))),
		smoothproc.MustNewDescription("eq2",
			smoothproc.OnChan(smoothproc.Odd, "c"),
			smoothproc.OnChan(smoothproc.FBA, "c")),
	)
	for _, perm := range [][]int64{{0, 1, 2}, {0, 2, 1}} {
		tr := smoothproc.EmptyTrace
		for _, n := range perm {
			tr = tr.Append(smoothproc.E("c", smoothproc.Int(n)))
		}
		fmt.Printf("c = %v: solution=%v smooth=%v\n",
			perm, eqs.LimitOK(tr), eqs.IsSmoothFinite(tr) == nil)
	}
	// Output:
	// c = [0 1 2]: solution=true smooth=false
	// c = [0 2 1]: solution=true smooth=true
}

// ExampleEnumerate shows the Section 3.3 tree search on the random-bit
// process of Section 4.3: R(b) ⟵ T̄.
func ExampleEnumerate() {
	d := smoothproc.MustNewDescription("rb",
		smoothproc.OnChan(smoothproc.RMap, "b"),
		smoothproc.ConstTraceFn(smoothproc.SeqOf(smoothproc.T)))
	res := smoothproc.Enumerate(context.Background(), smoothproc.NewProblem(d, map[string][]smoothproc.Value{
		"b": {smoothproc.T, smoothproc.F},
	}, 3))
	keys := res.SolutionKeys()
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k)
	}
	// Output:
	// ⟨(b,F)⟩
	// ⟨(b,T)⟩
}

// ExampleRun drives a two-process network operationally and prints the
// deterministic replay for a seed.
func ExampleRun() {
	spec := smoothproc.Spec{Name: "copy", Procs: []smoothproc.Proc{
		smoothproc.Feeder("feed", "in", smoothproc.Int(7)),
		{Name: "copy", Body: func(c *smoothproc.Ctx) {
			for {
				v, ok := c.Recv("in")
				if !ok {
					return
				}
				if !c.Send("out", v) {
					return
				}
			}
		}},
	}}
	res := smoothproc.Run(spec, smoothproc.NewRandomDecider(1), smoothproc.Limits{})
	fmt.Println(res.Trace, res.Reason)
	// Output:
	// ⟨(in,7)(out,7)⟩ quiescent
}

// ExampleCompileEqlang compiles a description written in the surface
// language and counts its smooth solutions.
func ExampleCompileEqlang() {
	prog, err := smoothproc.CompileEqlang(`
alphabet b = {T, F}
depth 3
desc R(b) <- [T]
expect solutions 2
`)
	if err != nil {
		panic(err)
	}
	res := smoothproc.Enumerate(context.Background(), prog.Problem())
	fmt.Println(res.Solutions.Len(), prog.CheckExpects(res) == nil)
	// Output:
	// 2 true
}

// ExampleRealize decides whether a trace corresponds to a computation by
// exhaustive schedule search — the operational half of the paper's
// central theorem.
func ExampleRealize() {
	spec := smoothproc.Spec{Name: "copy", Procs: []smoothproc.Proc{
		smoothproc.Feeder("feed", "in", smoothproc.Int(1)),
		{Name: "copy", Body: func(c *smoothproc.Ctx) {
			for {
				v, ok := c.Recv("in")
				if !ok {
					return
				}
				if !c.Send("out", v) {
					return
				}
			}
		}},
	}}
	good := smoothproc.TraceOf(
		smoothproc.E("in", smoothproc.Int(1)), smoothproc.E("out", smoothproc.Int(1)))
	bad := smoothproc.TraceOf(
		smoothproc.E("out", smoothproc.Int(1)), smoothproc.E("in", smoothproc.Int(1)))
	fmt.Println(
		smoothproc.Realize(spec, good, smoothproc.RealizeOpts{}).Found,
		smoothproc.Realize(spec, bad, smoothproc.RealizeOpts{}).Found)
	// Output:
	// true false
}
