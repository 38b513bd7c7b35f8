package solver

import (
	"context"
	"testing"

	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// TestPrunedCandidatesAllocateNothing pins the son rule's cost model on
// bytecode: a candidate the edge check f(u·e) ⊑ g(u) rejects is compared
// on VM views and never built, so it allocates nothing. Under
// a ⟵ ⟨⟩ every candidate on a is pruned, both by expand (depth bound 1)
// and by hasSon's probe (depth bound 0), so a search over 64 candidates
// must allocate exactly what one over 2 does.
func TestPrunedCandidatesAllocateNothing(t *testing.T) {
	d := desc.MustNew("silent", fn.ChanFn("a"), fn.ConstTraceFn(seq.Empty))
	allocs := func(size, depth int) float64 {
		msgs := make([]value.Value, size)
		for i := range msgs {
			msgs[i] = value.Int(int64(i))
		}
		p := NewProblem(d, map[string][]value.Value{"a": msgs}, depth)
		res := Enumerate(context.Background(), p)
		if !res.Stats.CompiledEval || res.Stats.SubtreesPruned != size || res.Nodes != 1 {
			t.Fatalf("size %d, depth %d: compiled %v, %d pruned, %d nodes; want bytecode, %d pruned, 1 node",
				size, depth, res.Stats.CompiledEval, res.Stats.SubtreesPruned, res.Nodes, size)
		}
		return testing.AllocsPerRun(20, func() { Enumerate(context.Background(), p) })
	}
	for _, depth := range []int{0, 1} {
		narrow, wide := allocs(2, depth), allocs(64, depth)
		if narrow != wide {
			t.Errorf("depth bound %d: Enumerate allocates %.0f objects over 2 pruned candidates and %.0f over 64, want equal",
				depth, narrow, wide)
		}
	}
}

// TestQueueIsFIFOAndRecyclesBlocks: the BFS queue hands nodes back in
// push order across block boundaries, clears each slot it pops (so a
// carried f dies with the visit), and a steady queue that has reached
// full-size blocks allocates nothing more: each consumed block becomes
// the tail's next one.
func TestQueueIsFIFOAndRecyclesBlocks(t *testing.T) {
	mk := func(i int) node {
		return node{t: trace.Of(trace.E("a", value.Int(int64(i)))), f: fn.Tuple{seq.OfInts(int64(i))}}
	}
	var q queue
	if _, ok := q.pop(); ok || !q.empty() {
		t.Fatal("zero queue is not empty")
	}
	next, want := 0, 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 3*queueMax/2; i++ {
			q.push(mk(next))
			next++
		}
		for i := 0; i < 3*queueMax/2-round%3; i++ {
			h, pos := q.head, q.pos
			n, ok := q.pop()
			if !ok || n.t.Last().Val.MustInt() != int64(want) || !n.f[0].Equal(seq.OfInts(int64(want))) {
				t.Fatalf("pop %d: got %v, %v", want, n.t, ok)
			}
			if h == q.head && h.nodes[pos].f != nil {
				t.Fatalf("pop %d left its slot's f behind", want)
			}
			want++
		}
	}
	if rest := q.drain(); len(rest) != next-want || !q.empty() {
		t.Fatalf("drain returned %d nodes, want %d", len(rest), next-want)
	} else if len(rest) > 0 && rest[0].t.Last().Val.MustInt() != int64(want) {
		t.Fatalf("drain starts at %v, want %d", rest[0].t, want)
	}

	// Steady state: one full-size block in, one out.
	var s queue
	n := mk(0)
	for i := 0; i < 4*queueMax; i++ {
		s.push(n)
	}
	if got := testing.AllocsPerRun(10, func() {
		for i := 0; i < queueMax; i++ {
			s.push(n)
		}
		for i := 0; i < queueMax; i++ {
			s.pop()
		}
	}); got != 0 {
		t.Errorf("steady queue: %.1f allocs per %d pushes and pops, want 0", got, queueMax)
	}
}
