// The Brock-Ackermann anomaly (Section 2.4 of the paper), end to end.
//
// History-insensitive semantics of nondeterministic dataflow admit the
// equation solution c = 0 1 2 that no computation can produce: process A
// must output both 0 and 2 before process B can hand back 1. Misra's
// smoothness condition excludes exactly that solution. This example
// shows the anomaly and its resolution three ways: by hand, by the tree
// solver, and operationally.
package main

import (
	"context"
	"fmt"

	"smoothproc"
)

func main() {
	// The eliminated description of the Figure 4 network:
	//   even(c) ⟵ ⟨0 2⟩,  odd(c) ⟵ fBA(c)
	// where fBA(n; m; x) = ⟨n+1⟩ and fBA of shorter inputs is ε.
	eqs := smoothproc.Combine("fig4",
		smoothproc.MustNewDescription("eq1",
			smoothproc.OnChan(smoothproc.Even, "c"),
			smoothproc.ConstTraceFn(smoothproc.SeqOfInts(0, 2))),
		smoothproc.MustNewDescription("eq2",
			smoothproc.OnChan(smoothproc.Odd, "c"),
			smoothproc.OnChan(smoothproc.FBA, "c")),
	)

	// 1. By hand: check all six orderings of {0, 1, 2} on c.
	fmt.Println("solutions of the equations among permutations of 0 1 2:")
	perms := [][]int64{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		tr := smoothproc.EmptyTrace
		for _, n := range perm {
			tr = tr.Append(smoothproc.E("c", smoothproc.Int(n)))
		}
		if !eqs.LimitOK(tr) {
			continue
		}
		verdict := "SMOOTH — a real computation"
		if err := eqs.IsSmoothFinite(tr); err != nil {
			verdict = "not smooth — the anomalous solution"
		}
		fmt.Printf("  c = %v: solves the equations; %s\n", perm, verdict)
	}

	// 2. The tree solver on the full system (with channel b) finds the
	// single smooth solution directly.
	full := smoothproc.Combine("fig4-full",
		smoothproc.MustNewDescription("A.even",
			smoothproc.OnChan(smoothproc.Even, "c"),
			smoothproc.ConstTraceFn(smoothproc.SeqOfInts(0, 2))),
		smoothproc.MustNewDescription("A.odd",
			smoothproc.OnChan(smoothproc.Odd, "c"), smoothproc.ChanFn("b")),
		smoothproc.MustNewDescription("B",
			smoothproc.ChanFn("b"),
			smoothproc.OnChan(smoothproc.FBA, "c")),
	)
	problem := smoothproc.NewProblem(full, map[string][]smoothproc.Value{
		"b": smoothproc.Ints(1),
		"c": smoothproc.Ints(0, 1, 2),
	}, 4)
	res := smoothproc.Enumerate(context.Background(), problem)
	fmt.Printf("\ntree search over %d nodes found %d smooth solution(s):\n", res.Nodes, res.Solutions.Len())
	for _, s := range res.Solutions.Traces() {
		fmt.Printf("  %s\n", s)
	}

	// 3. Operationally: process A fair-merges its input with the
	// internal ⟨0 2⟩; process B answers n+1 after two inputs. Every
	// quiescent run carries c = 0 2 1 — never 0 1 2.
	spec := smoothproc.Spec{Name: "fig4", Procs: []smoothproc.Proc{
		{Name: "A", Body: procA},
		{Name: "B", Body: procB},
	}}
	seen := map[string]bool{}
	for seed := int64(0); seed < 8; seed++ {
		run := smoothproc.Run(spec, smoothproc.NewRandomDecider(seed), smoothproc.Limits{})
		seen[run.Trace.Channel("c").String()] = true
	}
	fmt.Printf("\noperational c-sequences over 8 seeds: ")
	for k := range seen {
		fmt.Print(k)
	}
	fmt.Println()

	// And the anomalous target is not realizable by any schedule.
	anomalous := smoothproc.TraceOf(
		smoothproc.E("c", smoothproc.Int(0)),
		smoothproc.E("c", smoothproc.Int(1)),
		smoothproc.E("c", smoothproc.Int(2)),
	)
	r := smoothproc.Realize(spec, anomalous, smoothproc.RealizeOpts{History: true})
	fmt.Printf("exhaustive search for c = 0 1 2 as a history: found=%v after %d replays\n", r.Found, r.Runs)
}

// procA fair-merges channel b with the internal sequence ⟨0 2⟩ onto c.
// It offers the next internal item as a send alternative so it is never
// quiescent while an item is owed.
func procA(ctx *smoothproc.Ctx) {
	pending := smoothproc.Ints(0, 2)
	for {
		var alts []smoothproc.SendAlt
		if len(pending) > 0 {
			alts = append(alts, smoothproc.SendAlt{Ch: "c", Val: pending[0]})
		}
		alt, ok := ctx.Select(alts, []string{"b"})
		if !ok {
			return
		}
		if alt.IsSend {
			pending = pending[1:]
			continue
		}
		if !ctx.Send("c", alt.Val) {
			return
		}
	}
}

// procB outputs n+1 after receiving two inputs, where n was the first.
func procB(ctx *smoothproc.Ctx) {
	n, ok := ctx.Recv("c")
	if !ok {
		return
	}
	if _, ok := ctx.Recv("c"); !ok {
		return
	}
	num, _ := n.AsInt()
	ctx.Send("b", smoothproc.Int(num+1))
}
