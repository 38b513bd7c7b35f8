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

// all returns the fifo's elements, oldest first.
func (q *fifo[T]) all() []T {
	var out []T
	q.each(func(v T) { out = append(out, v) })
	return out
}

// TestQueueIsFIFOAndRecyclesBlocks: the BFS queue hands nodes back in
// push order across chunk boundaries, each node that was pushed with a
// carried f followed by that f, and clears each slot it pops, so a
// carried f dies with the visit. A steady queue that has reached
// full-size chunks allocates nothing more: each consumed chunk becomes
// the tail's next one.
func TestQueueIsFIFOAndRecyclesBlocks(t *testing.T) {
	val := func(i int) fn.Tuple { return fn.Tuple{seq.OfInts(int64(i))} }
	var q queue
	next, want := 0, 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 300; i++ {
			q.push(trace.ID(next), val(next), next%3 != 0)
			next++
		}
		for i := 0; i < 300-round%3; i++ {
			if id := q.ids.pop(); id != trace.ID(want) {
				t.Fatalf("pop %d: got node %d", want, id)
			}
			if want%3 != 0 {
				c, head := q.fs.chunks[0], q.fs.head
				if f := q.fs.pop(); !f.Equal(val(want)) {
					t.Fatalf("pop %d: got f %v", want, f)
				}
				if c[:head+1][head] != nil {
					t.Fatalf("pop %d left its slot's f behind", want)
				}
			}
			want++
		}
	}
	var rest queue
	rest.pushAll(&q)
	if rest.len() != next-want || q.len() != next-want {
		t.Fatalf("pushAll copied %d nodes and left %d, want %d", rest.len(), q.len(), next-want)
	} else if rest.ids.pop() != trace.ID(want) {
		t.Fatalf("pushAll's copy does not start at %d", want)
	}

	// Steady state: one full-size chunk in, one out.
	var s queue
	f := val(0)
	for i := 0; i < 4*fifoMax; i++ {
		s.push(1, f, true)
	}
	if got := testing.AllocsPerRun(10, func() {
		for i := 0; i < fifoMax; i++ {
			s.push(1, f, true)
		}
		for i := 0; i < fifoMax; i++ {
			s.ids.pop()
			s.fs.pop()
		}
	}); got != 0 {
		t.Errorf("steady queue: %.1f allocs per %d pushes and pops, want 0", got, fifoMax)
	}
}
