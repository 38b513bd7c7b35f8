package solver

import "smoothproc/internal/trace"

// NodeList is a list of nodes of a search's tree: a Result's solutions,
// frontier or dead leaves. It holds each node as its ID in a snapshot of
// the tree (see trace.Tree), so a search lists its nodes without
// building their traces. Key and AppendString read the tree's records,
// and a trace.Trace is built only for a caller that asks for one: At
// builds one node's, and Traces builds the whole list's, sharing the
// spine nodes of shared prefixes. The zero NodeList is empty. A
// NodeList never changes, so any goroutine may read it.
type NodeList struct {
	tree *trace.Tree
	ids  []trace.ID
}

// Len returns the number of nodes.
func (l NodeList) Len() int { return len(l.ids) }

// At builds the trace of the i-th node.
func (l NodeList) At(i int) trace.Trace { return l.tree.Trace(l.ids[i]) }

// Traces builds the traces of all the nodes, in order, with one spine
// node per distinct tree node on their paths.
func (l NodeList) Traces() []trace.Trace {
	if len(l.ids) == 0 {
		return nil
	}
	return l.tree.Traces(l.ids)
}

// Key returns the i-th node's trace.Key without building its trace.
func (l NodeList) Key(i int) trace.Key { return l.tree.Key(l.ids[i]) }

// AppendString appends the i-th node's rendering, Trace.String's, to b
// without building its trace.
func (l NodeList) AppendString(b []byte, i int) []byte { return l.tree.AppendString(b, l.ids[i]) }
