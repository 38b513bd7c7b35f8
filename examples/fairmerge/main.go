// Fair merge (Section 4.10, Figure 7 of the paper): the folklore-complete
// nondeterministic primitive, implemented by tagging, discriminated
// merging, and untagging — plus the worked variable elimination and the
// eqlang surface syntax for the same system.
package main

import (
	"context"
	"fmt"
	"sort"

	"smoothproc"
)

const mergeEq = `
# Fair merge after eliminating c' and d' (Section 4.10):
#   ZERO(b) <- tag0(c), ONE(b) <- tag1(d), e <- untag(b)
alphabet c = {10}
alphabet d = {20}
alphabet b = {(0,10), (1,20)}
alphabet e = {10, 20}
depth 6
desc zero(b) <- tag0(c)
desc one(b)  <- tag1(d)
desc e       <- untag(b)
desc c       <- [10]
desc d       <- [20]
`

func main() {
	// ---- The description, written in eqlang ----------------------------
	prog, err := smoothproc.CompileEqlang(mergeEq)
	if err != nil {
		panic(err)
	}
	res := smoothproc.Enumerate(context.Background(), prog.Problem())
	fmt.Printf("smooth solutions of the eliminated system (%d):\n", res.Solutions.Len())
	outs := map[string]bool{}
	for _, s := range res.Solutions.Traces() {
		outs[s.Channel("e").String()] = true
	}
	for _, k := range sorted(outs) {
		fmt.Printf("  e = %s\n", k)
	}

	// ---- The Figure 7 network, operationally ---------------------------
	// Taggers A and B, discriminated merge D, untagger C.
	spec := smoothproc.Spec{Name: "fig7", Procs: []smoothproc.Proc{
		smoothproc.Feeder("envC", "c", smoothproc.Int(10)),
		smoothproc.Feeder("envD", "d", smoothproc.Int(20)),
		tagger("A", "c", "c'", 0),
		tagger("B", "d", "d'", 1),
		{Name: "D", Body: func(ctx *smoothproc.Ctx) { // discriminated merge
			for {
				_, v, ok := ctx.RecvAny("c'", "d'")
				if !ok {
					return
				}
				if !ctx.Send("b", v) {
					return
				}
			}
		}},
		{Name: "C", Body: func(ctx *smoothproc.Ctx) { // untagger
			for {
				v, ok := ctx.Recv("b")
				if !ok {
					return
				}
				if !ctx.Send("e", v.Second()) {
					return
				}
			}
		}},
	}}
	opOuts := map[string]bool{}
	for seed := int64(0); seed < 24; seed++ {
		run := smoothproc.Run(spec, smoothproc.NewRandomDecider(seed), smoothproc.Limits{})
		opOuts[run.Trace.Channel("e").String()] = true
	}
	fmt.Println("\noperational merge orders over 24 seeds:")
	for _, k := range sorted(opOuts) {
		fmt.Printf("  e = %s\n", k)
	}

	// Both orders appear on both sides: the merge is genuinely
	// nondeterministic and the description captures it.
	fmt.Printf("\ndenotational orders == operational orders: %v\n", equalKeys(outs, opOuts))
}

func tagger(name, in, out string, tag int64) smoothproc.Proc {
	return smoothproc.Proc{Name: name, Body: func(ctx *smoothproc.Ctx) {
		for {
			v, ok := ctx.Recv(in)
			if !ok {
				return
			}
			if !ctx.Send(out, smoothproc.PairOf(smoothproc.Int(tag), v)) {
				return
			}
		}
	}}
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
