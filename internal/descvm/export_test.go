package descvm

import (
	"smoothproc/internal/fn"
	"smoothproc/internal/trace"
)

// TreeOf returns a tree holding t as one path, its alphabet t's events
// followed by extra, and t's node in it.
func TreeOf(t trace.Trace, extra ...trace.Event) (*trace.Tree, trace.ID) {
	evs := t.Events()
	tr := trace.NewTree(append(evs, extra...))
	id := trace.Root
	for i := range evs {
		id = tr.Add(id, i)
	}
	return tr, id
}

// Eval applies the compiled function to t, held in a tree of its own,
// and returns a Tuple the caller owns.
func (s *Session) Eval(t trace.Trace) fn.Tuple {
	tr, id := TreeOf(t)
	return s.Keep(s.View(tr, id))
}

// Steps returns the pops and pushes the session's next move to node u
// of t takes: the steps from its frame's base to u through their common
// ancestor, or, in another tree, from the base down to ⊥ and on to u.
func (s *Session) Steps(t *trace.Tree, u trace.ID) int {
	if t != s.fr.tree {
		n := t.Len(u)
		if s.fr.tree != nil {
			n += s.fr.tree.Len(s.fr.base)
		}
		return n
	}
	a, b, d := s.fr.base, u, 0
	for ; a != b; d++ {
		if t.Len(a) >= t.Len(b) {
			a, _ = t.Edge(a)
		} else {
			b, _ = t.Edge(b)
		}
	}
	return d
}
