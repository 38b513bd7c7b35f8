// Quickstart: define the paper's discriminated fair merge (Figure 2) in
// both of its forms — a description even(d) ⟵ b, odd(d) ⟵ c and an
// operational process — then show that the smooth solutions of the
// description are exactly the quiescent traces of a run.
package main

import (
	"context"
	"fmt"

	"smoothproc"
)

func main() {
	// ---- Denotational: the description --------------------------------
	// A description is a pair of continuous functions from traces to
	// sequences. The merge's evens must be exactly what channel b
	// carried, its odds exactly what c carried.
	dfm := smoothproc.Combine("dfm",
		smoothproc.MustNewDescription("even",
			smoothproc.OnChan(smoothproc.Even, "d"), smoothproc.ChanFn("b")),
		smoothproc.MustNewDescription("odd",
			smoothproc.OnChan(smoothproc.Odd, "d"), smoothproc.ChanFn("c")),
		// The environment: b carries ⟨0⟩ and c carries ⟨1⟩.
		smoothproc.MustNewDescription("envB",
			smoothproc.ChanFn("b"), smoothproc.ConstTraceFn(smoothproc.SeqOfInts(0))),
		smoothproc.MustNewDescription("envC",
			smoothproc.ChanFn("c"), smoothproc.ConstTraceFn(smoothproc.SeqOfInts(1))),
	)

	// Enumerate the smooth solutions with the Section 3.3 tree search.
	problem := smoothproc.NewProblem(dfm, map[string][]smoothproc.Value{
		"b": smoothproc.Ints(0),
		"c": smoothproc.Ints(1),
		"d": smoothproc.Ints(0, 1),
	}, 4)
	result := smoothproc.Enumerate(context.Background(), problem)
	fmt.Printf("smooth solutions (%d):\n", result.Solutions.Len())
	for _, s := range result.Solutions.Traces() {
		fmt.Printf("  %s\n", s)
	}

	// ---- Operational: goroutine processes on the runtime --------------
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

	// Every seed yields a deterministic replay; different seeds explore
	// different interleavings.
	fmt.Println("\noperational runs:")
	for seed := int64(1); seed <= 3; seed++ {
		run := smoothproc.Run(spec, smoothproc.NewRandomDecider(seed), smoothproc.Limits{})
		fmt.Printf("  seed %d: %-40s (%v)\n", seed, run.Trace, run.Reason)
	}

	// ---- The correspondence -------------------------------------------
	// Exhaustively enumerate quiescent traces and compare with the
	// smooth solutions — the paper's central theorem, mechanically.
	quiescent := smoothproc.QuiescentTraces(spec, 20, smoothproc.RealizeOpts{})
	match := len(quiescent) == result.Solutions.Len()
	for _, s := range result.Solutions.Traces() {
		if _, ok := quiescent[s.String()]; !ok {
			match = false
		}
	}
	fmt.Printf("\nsmooth solutions == quiescent traces: %v (%d each)\n", match, len(quiescent))
}
