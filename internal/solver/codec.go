// Checkpoint serialization, codec v6. A checkpoint is a cut of the §3.3
// tree's canonical BFS order, and a tree node is its parent plus one
// candidate event. DecodeCheckpoint receives the Problem whose alphabet
// fixes those events, so the blob stores the tree's shape and nothing
// else: one record per committed node, in commit order, holding its
// solution bit and the flat indices of the candidates its edge check
// admitted. A flat index runs over Channels × Alphabet, the order of the
// search's candidate table.
//
// Decode replays the BFS from ⊥ over the records into the search's
// tree, adding each son by its flat index, so the decoded tree is the
// captured one: one 24-byte record per tree node. Everything else
// follows from the shape and the bounds. A node with sons is interior below the
// depth bound and frontier at it, where its sons are the retained ones;
// a node without sons is closed if it is a solution and dead otherwise.
// The admitted sons the records never commit are the pending queue, the
// skipped node of a truncated capture first. The f a retained son or a
// pending node carries is recomputed, not stored, once the replayed tree
// passes its check: a son carries f exactly when its candidate is not a
// Theorem 1 auto edge, and ⊥ carries the induction-base check's f(⊥).
// Each recomputation is one application that counts nothing, so the
// decoded SearchStats are the encoded ones and a resume counts what the
// live checkpoint's would.
//
// Integrity: the blob ends with a check value, a fold of the Keys of
// every node outside the interior (solutions, frontier, dead leaves,
// retained sons and pending nodes), read from the tree's records. Every
// tree node lies on the path of one of them, so a record naming a wrong
// son, or a Problem whose candidate order differs from the capture's,
// fails the check. The
// replayed tree's role counts must also equal the stored stats', every
// count and index is bounds-checked before use, and every failure wraps
// ErrCorrupt.
//
// What is NOT serialized: the Problem's function values (the description
// sides and callbacks). DecodeCheckpoint takes a caller-supplied Problem
// — rebuilt from the stored spec source — and overrides only the bounds
// the blob carries; the search derives its evaluators and its Theorem 1
// fast path from that description, as the capture did.
package solver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"smoothproc/internal/fn"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// checkpointVersion guards the blob layout; bump on any change.
const checkpointVersion = 6

// ErrCorrupt is the sentinel every checkpoint decode failure wraps: a
// blob that is truncated, of another version, out of range, or that
// fails its check value.
var ErrCorrupt = errors.New("solver: corrupt checkpoint")

// appendRecord appends a committed node's shape record to b: its son
// count and solution bit in one varint, then each son's flat candidate
// index. The sons are the n nodes expand last added to tree, from ID
// first on, and a node's event index is its flat candidate index.
func appendRecord(b []byte, solution bool, tree *trace.Tree, first, n int) []byte {
	head := uint64(n) << 1
	if solution {
		head |= 1
	}
	b = binary.AppendUvarint(b, head)
	for v := first; v < first+n; v++ {
		_, e := tree.Edge(trace.ID(v))
		b = binary.AppendUvarint(b, uint64(e))
	}
	return b
}

// Encode serializes the checkpoint into one self-verifying blob. It
// writes the shape records the capture legs appended as they committed
// nodes, so its cost is linear in the nodes and it builds no index of
// the tree. The checkpoint is not locked: callers serialize Encode
// against Resume exactly as they serialize resumes against each other.
func (cp *Checkpoint) Encode() ([]byte, error) {
	if cp == nil || cp.s == nil {
		return nil, fmt.Errorf("solver: encode of an empty checkpoint")
	}
	p, r := cp.s.p, cp.done
	committed := r.Nodes
	if r.Truncated {
		committed--
	}
	// The header goes to a stack buffer first, so that the blob is
	// allocated once, at its final size.
	var buf [256]byte
	h := binary.AppendUvarint(buf[:0], checkpointVersion)
	h = binary.AppendVarint(h, int64(p.MaxDepth))
	h = binary.AppendVarint(h, int64(p.MaxNodes))
	h = binary.AppendVarint(h, int64(cp.resumes))
	h = appendBool(h, cp.finaled)
	h = appendBool(h, r.Canceled)
	h = appendStats(h, r.Stats)
	h = binary.AppendUvarint(h, uint64(committed))
	b := make([]byte, 0, len(h)+len(cp.shape)+binary.MaxVarintLen64)
	b = append(append(b, h...), cp.shape...)
	return binary.AppendUvarint(b, cp.checkValue(r)), nil
}

// checkValue folds the Keys of every node a checkpoint holds outside
// the interior, list by list, each list's length first: r's lists, each
// of r's frontier nodes' retained sons, and the pending nodes.
func (cp *Checkpoint) checkValue(r Result) uint64 {
	tree := cp.s.tree
	h := uint64(checkpointVersion)
	fold := func(ids []trace.ID) {
		h = value.HashMix(h, uint64(len(ids)))
		for _, id := range ids {
			h = value.HashMix(h, uint64(tree.Key(id)))
		}
	}
	fold(r.Solutions.ids)
	fold(r.Frontier.ids)
	fold(r.DeadLeaves.ids)
	// Each frontier node's sons are the retained nodes that follow, as
	// long as their parent is that node: counted first, then folded.
	sons := &cp.retained.ids
	p, left := sons.start(), sons.len()
	foldNext := func(n int) {
		h = value.HashMix(h, uint64(n))
		for ; n > 0; n-- {
			var u trace.ID
			u, p = sons.at(p)
			h = value.HashMix(h, uint64(tree.Key(u)))
		}
	}
	for _, f := range r.Frontier.ids {
		n := 0
		for c := p; n < left; n++ {
			var u trace.ID
			u, c = sons.at(c)
			if parent, _ := tree.Edge(u); parent != f {
				break
			}
		}
		foldNext(n)
		left -= n
	}
	sons = &cp.pending.ids
	p = sons.start()
	foldNext(sons.len())
	return h
}

// DecodeCheckpoint rebuilds a checkpoint from Encode's blob. p must be
// the same problem the capture ran (sides rebuilt from the same spec);
// the blob's captured bounds override p.MaxDepth/p.MaxNodes. All
// corruption failures wrap ErrCorrupt.
func DecodeCheckpoint(data []byte, p Problem) (*Checkpoint, error) {
	cp, err := decodeCheckpoint(data, p)
	if err != nil {
		return nil, fmt.Errorf("solver: decode checkpoint: %w", err)
	}
	return cp, nil
}

func decodeCheckpoint(data []byte, p Problem) (*Checkpoint, error) {
	r := reader{b: data}
	if v := r.uvarint(); r.err == nil && v != checkpointVersion {
		return nil, fmt.Errorf("version %d, this build reads %d: %w", v, checkpointVersion, ErrCorrupt)
	}
	maxDepth, maxNodes, resumes := r.varint(), r.varint(), r.varint()
	finaled, canceled := r.bool(), r.bool()
	st := r.stats()
	n := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if maxDepth < 0 || maxNodes < 0 || resumes < 0 || n > uint64(len(r.b)) {
		return nil, fmt.Errorf("bounds (%d, %d), %d resumes, %d records in %d bytes: %w",
			maxDepth, maxNodes, resumes, n, len(r.b), ErrCorrupt)
	}
	p.MaxDepth, p.MaxNodes, p.OnSolution = int(maxDepth), int(maxNodes), nil

	// Rebuild the search machinery. The constructor may run the Theorem 1
	// induction base check, applying both sides at ⊥ again; it counts
	// nothing, like the f recomputations below: the decoded stats already
	// hold every application and hit the captured legs made.
	cp := &Checkpoint{s: newSearch(p), resumes: int(resumes), finaled: finaled}
	records := r.b
	res, err := cp.replay(&r, int(n), st)
	if err != nil {
		return nil, err
	}
	cp.shape = bytes.Clone(records[:len(records)-len(r.b)])
	check := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes: %w", len(r.b), ErrCorrupt)
	}
	res.Truncated, res.Canceled = cp.pending.len() > 0, canceled
	if res.Truncated {
		// The skipped node heads the pending queue: visited, not committed.
		res.Stats.Visited++
		res.Stats.Skipped++
	}
	res.Nodes = res.Stats.Visited
	if got, want := roles(st), roles(res.Stats); got != want || (canceled && !res.Truncated) {
		return nil, fmt.Errorf("stats %v disagree with the replayed tree %v (canceled %v): %w", got, want, canceled, ErrCorrupt)
	}
	if got := cp.checkValue(res); got != check {
		return nil, fmt.Errorf("check value %#x, replayed tree gives %#x: %w", check, got, ErrCorrupt)
	}
	res.Stats = st
	cp.s.publish(&res, true)
	cp.done = res
	for _, q := range []*queue{&cp.pending, &cp.retained} {
		q.ids.each(func(u trace.ID) {
			if u != trace.Root && cp.s.carries(u) {
				q.fs.push(cp.s.carried(u))
			}
		})
	}
	return cp, nil
}

// roles lists the counters that the tree's shape fixes.
func roles(s SearchStats) [8]int {
	return [...]int{s.Visited, s.Interior, s.Frontier, s.Dead, s.Closed, s.Skipped, s.Solutions, s.RetainedSons}
}

// replay runs the BFS from ⊥ over n shape records read from r, at the
// problem's depth bound, adding every son they name to the search's
// tree. It returns the result lists with the role counters of the
// committed nodes in its Stats, and leaves the retained frontier and the
// pending queue in cp, without their carried values, for which it
// reserves room. A son is queued only below the depth bound, so no node
// lies deeper than it. The blob's stats size the lists up front; they
// are not trusted beyond what the records can hold.
func (cp *Checkpoint) replay(r *reader, n int, claimed SearchStats) (Result, error) {
	s := cp.s
	fanout := len(s.auto)
	size := func(c, limit int) int { return max(0, min(c, limit)) }
	res := Result{
		Solutions:  NodeList{ids: make([]trace.ID, 0, size(claimed.Solutions, n))},
		Frontier:   NodeList{ids: make([]trace.ID, 0, size(claimed.Frontier, n))},
		DeadLeaves: NodeList{ids: make([]trace.ID, 0, size(claimed.Dead, n))},
	}
	// The BFS work list is ⊥, then every son a record queues, in the
	// order they are added, so its nodes are IDs 0, 1, …: next is the one
	// the next record commits, and queued how many there are. A son at
	// the depth bound is retained instead, and the tree gets it only
	// after every queued node, since BFS reaches the bound last. What the
	// records never commit is pending.
	cp.retained.ids.reserve(size(claimed.RetainedSons, len(r.b)))
	next, queued, carriers := trace.Root, 1, 0
	st := &res.Stats
	for ; n > 0; n-- {
		head := r.uvarint()
		if r.err != nil {
			return res, r.err
		}
		if int(next) == queued || head>>1 > uint64(fanout) {
			return res, fmt.Errorf("record %d (head %#x) past the tree or its fan-out %d: %w", st.Visited, head, fanout, ErrCorrupt)
		}
		sons, solution := int(head>>1), head&1 == 1
		u := next
		next++
		frontier := s.tree.Len(u) >= s.p.MaxDepth
		for k, prev := 0, -1; k < sons; k++ {
			i := r.uvarint()
			if r.err != nil {
				return res, r.err
			}
			if i >= uint64(fanout) || int(i) <= prev {
				return res, fmt.Errorf("son index %d after %d, fan-out %d: %w", i, prev, fanout, ErrCorrupt)
			}
			prev = int(i)
			s.son = trace.Empty
			v := s.add(u, prev)
			if frontier {
				cp.retained.ids.push(v)
				if !s.auto[prev] {
					carriers++
				}
			} else {
				queued++
			}
		}
		st.Visited++
		if solution {
			res.Solutions.ids = append(res.Solutions.ids, u)
			st.Solutions++
		}
		switch {
		case sons == 0 && solution:
			st.Closed++
		case sons == 0:
			res.DeadLeaves.ids = append(res.DeadLeaves.ids, u)
			st.Dead++
		case !frontier:
			st.Interior++
		default:
			res.Frontier.ids = append(res.Frontier.ids, u)
			st.Frontier++
			st.RetainedSons += sons
		}
	}
	cp.retained.fs.reserve(carriers)
	cp.pending.ids.reserve(queued - int(next))
	for carriers = 0; int(next) < queued; next++ {
		cp.pending.ids.push(next)
		if next != trace.Root && s.carries(next) {
			carriers++
		}
	}
	cp.pending.fs.reserve(carriers)
	return res, nil
}

// carried returns f of queued node u, a son that is not a Theorem 1
// auto edge's, recomputed, counting nothing, as its parent's edge check
// left it: the value a checkpoint blob does not store. A value the VM
// computed is carved from the search's arena.
func (s *search) carried(u trace.ID) fn.Tuple {
	var untimed int64
	return s.carry(s.apply(s.p.D.F, s.fsess, u, -1, &untimed))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// The SearchStats fields a blob carries, in blob order.
func statInts(s *SearchStats) []*int {
	return []*int{
		&s.Visited, &s.Interior, &s.Frontier, &s.Dead, &s.Closed, &s.Skipped,
		&s.Solutions, &s.LimitChecks,
		&s.EdgesChecked, &s.EdgesKept, &s.SubtreesPruned, &s.FrontierWitnesses,
		&s.RetainedSons, &s.Thm1AutoEdges,
	}
}

func levelInts(l *LevelStats) []*int { return []*int{&l.Depth, &l.Nodes, &l.Solutions, &l.Pruned} }

func evalInts(s *SearchStats) []*int64 {
	return []*int64{
		&s.Eval.FApplies, &s.Eval.GApplies, &s.Eval.FHits, &s.Eval.GHits,
		&s.Eval.FNanos, &s.Eval.GNanos,
	}
}

func appendStats(b []byte, s SearchStats) []byte {
	for _, n := range statInts(&s) {
		b = binary.AppendVarint(b, int64(*n))
	}
	b = appendBool(b, s.Thm1FastPath)
	b = appendBool(b, s.CompiledEval)
	b = binary.AppendVarint(b, int64(s.Elapsed))
	b = binary.AppendUvarint(b, uint64(len(s.Levels)))
	for i := range s.Levels {
		for _, n := range levelInts(&s.Levels[i]) {
			b = binary.AppendVarint(b, int64(*n))
		}
	}
	for _, n := range evalInts(&s) {
		b = binary.AppendVarint(b, *n)
	}
	return b
}

// reader walks a blob. The first failure sticks in err, and every later
// read returns zero.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("bad %s with %d bytes left: %w", what, len(r.b), ErrCorrupt)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *reader) bool() bool {
	if r.err != nil || len(r.b) == 0 || r.b[0] > 1 {
		r.fail("bool")
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

func (r *reader) stats() SearchStats {
	var s SearchStats
	for _, p := range statInts(&s) {
		*p = int(r.varint())
	}
	s.Thm1FastPath = r.bool()
	s.CompiledEval = r.bool()
	s.Elapsed = time.Duration(r.varint())
	// Each level costs at least four bytes.
	if nl := r.uvarint(); nl > uint64(len(r.b)/4) {
		r.fail("level count")
	} else if nl > 0 {
		s.Levels = make([]LevelStats, nl)
		for i := range s.Levels {
			for _, p := range levelInts(&s.Levels[i]) {
				*p = int(r.varint())
			}
		}
	}
	for _, p := range evalInts(&s) {
		*p = r.varint()
	}
	return s
}
