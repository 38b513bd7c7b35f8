package trace

import (
	"sync"
	"testing"
	"unsafe"
)

// growTree adds n nodes to a tree over two channels' events, each the
// son of a node i/2 (so every level is full), and returns the tree with
// each node's trace built by Append.
func growTree(n int) (*Tree, []Trace) {
	alpha := []Event{ev("a", 0), ev("a", 1), ev("b", 0)}
	tr := NewTree(alpha)
	want := []Trace{Empty}
	for i := 1; i < n; i++ {
		parent, e := ID((i-1)/2), i%len(alpha)
		tr.Add(parent, e)
		want = append(want, want[parent].Append(alpha[e]))
	}
	return tr, want
}

// TestTreeMatchesAppend: a tree node is the trace Append builds — its
// length, Key, rendering and built trace — across chunk boundaries; a
// record is 24 bytes; and adding nodes allocates only the chunks.
func TestTreeMatchesAppend(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 24 {
		t.Errorf("a record is %d bytes, want 24", got)
	}
	const n = doubled + 2*chunkMax + 3
	tr, want := growTree(n)
	if tr.Size() != n {
		t.Fatalf("Size %d, want %d", tr.Size(), n)
	}
	for i, w := range want {
		id := ID(i)
		if got := tr.Trace(id); !got.Equal(w) || got.Key() != w.Key() {
			t.Fatalf("node %d: built %s, want %s", i, got, w)
		}
		if tr.Len(id) != w.Len() || tr.Key(id) != w.Key() || string(tr.AppendString(nil, id)) != w.String() {
			t.Fatalf("node %d: len %d, key %x, %s; want %d, %x, %s",
				i, tr.Len(id), tr.Key(id), tr.AppendString(nil, id), w.Len(), w.Key(), w)
		}
		if i > 0 {
			parent, e := tr.Edge(id)
			if parent != ID((i-1)/2) || !tr.Alphabet()[e].Equal(w.Last()) {
				t.Fatalf("node %d: edge (%d, %d)", i, parent, e)
			}
		}
	}
	// The chunks hold 16, 32, …, 4096 records, then 4096 each.
	allocs := testing.AllocsPerRun(1, func() {
		tr := NewTree([]Event{ev("a", 0)})
		for i := 1; i < n; i++ {
			tr.Add(ID(i-1), 0)
		}
	})
	// The alphabet slice, the tree, its hashes and its chunk table, which
	// has room for 16 chunks; then the 12 chunks.
	if want := 4 + nDoubled + 3; allocs != float64(want) {
		t.Errorf("%d nodes: %.0f allocations, want %d", n, allocs, want)
	}
}

// TestTreeTracesShareSpines: building a list of nodes' traces builds
// one spine node per distinct non-root node on their paths, so a prefix
// the nodes share is built once and shared by their traces.
func TestTreeTracesShareSpines(t *testing.T) {
	tr, want := growTree(200)
	ids := []ID{151, 152, 75, 37, 151, Root, 199, 100}
	distinct := map[ID]bool{}
	for _, id := range ids {
		for c := id; c != Root; c, _ = tr.Edge(c) {
			distinct[c] = true
		}
	}
	got := tr.Traces(ids)
	spine := map[*node]bool{}
	for i, g := range got {
		if !g.Equal(want[ids[i]]) || g.Key() != want[ids[i]].Key() {
			t.Fatalf("trace %d: %s, want %s", i, g, want[ids[i]])
		}
		for c := g.end; c != nil; c = c.parent {
			spine[c] = true
		}
	}
	if len(spine) != len(distinct) {
		t.Errorf("built %d spine nodes for %d distinct tree nodes", len(spine), len(distinct))
	}
	// 151 and 152 are siblings, and 75 is their parent.
	if got[0].Take(got[0].Len()-1).end != got[1].Take(got[1].Len()-1).end || got[0].Take(got[2].Len()).end != got[2].end {
		t.Error("siblings do not share their parent's spine node")
	}
	if got[0].end != got[4].end {
		t.Error("a node listed twice is built twice")
	}
}

// TestTreeSnapshotConcurrentReaders: a copy of a Tree is a snapshot
// that readers on other goroutines read without a lock while its one
// writer adds nodes past it, across chunk boundaries; run under -race.
func TestTreeSnapshotConcurrentReaders(t *testing.T) {
	tr, want := growTree(chunkFirst + 5)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		snap := *tr
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i := range snap.Size() {
					s := snap.AppendString(nil, ID(i))
					if i < len(want) && (string(s) != want[i].String() || snap.Key(ID(i)) != want[i].Key()) {
						t.Errorf("snapshot node %d changed", i)
						return
					}
				}
				snap.Traces([]ID{ID(snap.Size() - 1), 3})
			}
		}()
		for i := 0; i < 3*chunkFirst; i++ {
			tr.Add(ID(tr.Size()-1), i%3)
		}
	}
	wg.Wait()
}
