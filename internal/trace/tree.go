package trace

import (
	"math/bits"
	"slices"

	"smoothproc/internal/value"
)

// ID names a node of a Tree: nodes are numbered in the order they were
// added, and the root ⊥ is Root.
type ID int32

// Root is every tree's root, the empty trace ⊥.
const Root ID = 0

// record is one tree node: the edge that reaches it — its parent and
// the index of its last event in the tree's alphabet — together with
// its length and its structural hash, as a spine node keeps them. It
// holds no pointer, so the garbage collector never scans a chunk.
type record struct {
	parent ID
	event  int32
	n      int32
	hash   uint64
}

// Chunks: the first holds chunkFirst records and each next one twice its
// predecessor, up to chunkMax; from then on every chunk holds chunkMax.
// doubled is how many records the doubling chunks hold, and nDoubled how
// many of them there are.
const (
	chunkFirst = 16
	chunkMax   = 4096
	nDoubled   = 9
	doubled    = chunkFirst * (1<<nDoubled - 1)
)

// Tree is a tree of traces over one alphabet, the Section 3.3 tree's
// shape: a node is its parent extended by one alphabet event, so it is
// held as a fixed-size record of indices, and a Trace is built only for
// a node a caller asks for. Records are appended to chunks that never
// move once written, and a written record is never written again.
//
// A Tree has one writer: only the *Tree NewTree returned adds nodes. A
// copy of the Tree value is a snapshot of the nodes added so far — its
// records are never moved or written again — so readers on other
// goroutines may read a snapshot without a lock while the writer adds
// nodes past it.
type Tree struct {
	// events and hashes are the alphabet and its events' hashes, never
	// written after NewTree.
	events []Event
	hashes []uint64
	chunks [][]record
	n      int
	// ext is the unused tail of the block Extend carves spine nodes
	// from, for a caller that builds a trace for every node.
	ext []node
}

// NewTree returns a tree holding only Root, whose nodes extend their
// parents by events of alphabet, named by index. The slice is retained
// and must not be modified.
func NewTree(alphabet []Event) *Tree {
	t := &Tree{events: alphabet, hashes: make([]uint64, len(alphabet)), chunks: make([][]record, 0, 16)}
	for i, e := range alphabet {
		t.hashes[i] = e.Hash64()
	}
	t.push(record{parent: -1, event: -1, hash: emptyHash})
	return t
}

// locate returns the chunk and the offset in it of record i.
func locate(i uint) (k, off uint) {
	if i < doubled {
		k = uint(bits.Len(i/chunkFirst+1)) - 1
		return k, i - chunkFirst*(1<<k-1)
	}
	i -= doubled
	return nDoubled + i/chunkMax, i % chunkMax
}

func (t *Tree) rec(id ID) *record {
	k, off := locate(uint(id))
	return &t.chunks[k][off]
}

// push appends r, starting a new chunk when the last one is full.
func (t *Tree) push(r record) ID {
	k, off := locate(uint(t.n))
	if off == 0 {
		size := uint(chunkMax)
		if k < nDoubled {
			size = chunkFirst << k
		}
		t.chunks = append(t.chunks, make([]record, size))
	}
	t.chunks[k][off] = r
	t.n++
	return ID(t.n - 1)
}

// Add appends the son of parent by alphabet event e and returns its ID.
func (t *Tree) Add(parent ID, e int) ID {
	if uint(parent) >= uint(t.n) || uint(e) >= uint(len(t.events)) || t.n == 1<<31-1 {
		panic("trace: Tree.Add out of range")
	}
	p := t.rec(parent)
	return t.push(record{parent: parent, event: int32(e), n: p.n + 1, hash: value.HashMix(p.hash, t.hashes[e])})
}

// Size returns the number of nodes, Root included.
func (t *Tree) Size() int { return t.n }

// Alphabet returns the events the tree's nodes are built from, which
// the caller must not modify.
func (t *Tree) Alphabet() []Event { return t.events }

// Len returns the length of node id's trace.
func (t *Tree) Len(id ID) int { return int(t.rec(id).n) }

// Edge returns the parent of a node other than Root and the alphabet
// index of the event that extends the parent to it.
func (t *Tree) Edge(id ID) (parent ID, e int) {
	r := t.rec(id)
	return r.parent, int(r.event)
}

// Extend returns u extended by alphabet event e — u.Append of the
// event — with the event's hash computed once per tree, and the new
// spine node carved from a block of extBlock nodes: a search whose
// interpreted side needs the trace of every node and of every evaluated
// candidate builds them at one allocation per block, not per node. A
// block stays allocated while any of its nodes is reachable.
func (t *Tree) Extend(u Trace, e int) Trace {
	if len(t.ext) == 0 {
		t.ext = make([]node, extBlock)
	}
	c := &t.ext[0]
	t.ext = t.ext[1:]
	*c = u.cell(t.events[e], t.hashes[e])
	return Trace{end: c}
}

// extBlock is the number of spine nodes in one of Extend's blocks.
const extBlock = 64

// Key returns the Key of node id's trace in O(1), from its record.
func (t *Tree) Key(id ID) Key {
	r := t.rec(id)
	return Key(value.HashMix(r.hash, uint64(r.n)))
}

// Trace builds node id's trace: a fresh spine of one block.
func (t *Tree) Trace(id ID) Trace {
	r := t.rec(id)
	if r.n == 0 {
		return Empty
	}
	block := make([]node, r.n)
	for i := len(block) - 1; i >= 0; i-- {
		block[i] = node{ev: t.events[r.event], n: i + 1, hash: r.hash}
		if i > 0 {
			block[i].parent = &block[i-1]
		}
		r = t.rec(r.parent)
	}
	return Trace{end: &block[len(block)-1]}
}

// Traces builds the traces of nodes ids, in order, sharing spine nodes
// exactly where the tree shares ancestors: it builds one spine node for
// each distinct non-root node on the nodes' paths to Root, all from one
// block, so a prefix the nodes share is built once.
func (t *Tree) Traces(ids []ID) []Trace {
	// Every path is walked up to the first node another path reached,
	// so each distinct node is visited once, collecting the nodes to
	// build; built maps a collected node to its place in the block.
	// Parents have smaller IDs than their sons, so building the block
	// in ID order builds every parent before its sons.
	built := make(map[ID]int32)
	var todo []ID
	for _, id := range ids {
		for c := id; c != Root; c = t.rec(c).parent {
			if _, ok := built[c]; ok {
				break
			}
			built[c] = 0
			todo = append(todo, c)
		}
	}
	slices.Sort(todo)
	block := make([]node, len(todo))
	for i, c := range todo {
		built[c] = int32(i)
		r := t.rec(c)
		var parent *node
		if r.parent != Root {
			parent = &block[built[r.parent]]
		}
		block[i] = node{parent: parent, ev: t.events[r.event], n: int(r.n), hash: r.hash}
	}
	out := make([]Trace, len(ids))
	for i, id := range ids {
		if id != Root {
			out[i] = Trace{end: &block[built[id]]}
		}
	}
	return out
}

// AppendKey appends the bracketless rendering of node id's trace — what
// Trace.AppendKey appends for it — to b, without building the trace.
func (t *Tree) AppendKey(b []byte, id ID) []byte {
	if id == Root {
		return b
	}
	r := t.rec(id)
	return t.events[r.event].AppendKey(t.AppendKey(b, r.parent))
}

// AppendString appends String's rendering of node id's trace to b.
func (t *Tree) AppendString(b []byte, id ID) []byte {
	b = append(b, "⟨"...)
	return append(t.AppendKey(b, id), "⟩"...)
}
