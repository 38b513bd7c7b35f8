// Package solver implements the operational view of smooth solutions in
// Section 3.3 of the paper: a tree rooted at ⊥ in which a node labelled u
// has a son labelled v iff u pre v and f(v) ⊑ g(u). Smooth solutions are
// the nodes that also satisfy the limit condition f = g; infinite paths
// approximate ω smooth solutions. The construction generalises Kleene's
// fixpoint chain — for a description id ⟵ h the tree degenerates to the
// chain ⊥, h(⊥), h²(⊥), ... (Theorem 4, checked in package kahn).
//
// The paper's tree branches over all one-step extensions of u; to make
// that finite the Problem supplies a candidate alphabet per channel (see
// DESIGN.md on this substitution).
package solver

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"smoothproc/internal/desc"
	"smoothproc/internal/descvm"
	"smoothproc/internal/fn"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// Problem is a description together with the finite branching data the
// tree search needs. The search derives everything else from the
// description: it evaluates every side that lowers on descvm bytecode
// and the rest on the interpreter, and it takes the Theorem 1 fast path
// exactly when desc.Description.Thm1Eligible holds.
type Problem struct {
	// D is the (usually combined) description whose smooth solutions are
	// sought.
	D desc.Description
	// Channels lists the channels over which traces are built, in a
	// deterministic exploration order.
	Channels []string
	// Alphabet gives the candidate messages per channel.
	Alphabet map[string][]value.Value
	// MaxDepth bounds the trace length explored.
	MaxDepth int
	// MaxNodes bounds the total number of tree nodes expanded; 0 means
	// no bound beyond MaxDepth.
	MaxNodes int
	// OnSolution, when non-nil, is invoked for each smooth solution as the
	// search commits it, in canonical BFS order, on the goroutine that
	// called the search. The callback runs on the search's critical path
	// and must not block; buffer and hand off instead. The streaming
	// service endpoint is the intended consumer.
	OnSolution func(trace.Trace)

	// Compiled is ignored: every side that lowers runs on bytecode.
	//
	// Deprecated: kept only for the benchmark module's callers until its
	// next change (ROADMAP item 8).
	Compiled bool
	// CollectVisited is ignored: a search keeps no list of visited nodes.
	//
	// Deprecated: kept only for the benchmark module's callers until its
	// next change (ROADMAP item 8).
	CollectVisited bool
}

// NewProblem builds a problem whose channels are the alphabet's, sorted.
func NewProblem(d desc.Description, alphabet map[string][]value.Value, maxDepth int) Problem {
	chans := make([]string, 0, len(alphabet))
	for c := range alphabet {
		chans = append(chans, c)
	}
	sort.Strings(chans)
	return Problem{D: d, Channels: chans, Alphabet: alphabet, MaxDepth: maxDepth}
}

// Result reports a bounded exploration of the smooth-solution tree.
type Result struct {
	// Solutions are the tree nodes satisfying the limit condition —
	// exactly the finite smooth solutions within the depth bound.
	Solutions []trace.Trace
	// Frontier are the depth-bound nodes that still have sons (or are at
	// MaxDepth); every ω smooth solution within the alphabet passes
	// through the frontier.
	Frontier []trace.Trace
	// DeadLeaves are nodes with no sons that fail the limit condition:
	// communication histories after which the process is stuck yet its
	// equations do not hold. (For a well-formed process description these
	// are nonquiescent histories whose extensions all left the alphabet.)
	DeadLeaves []trace.Trace
	// Nodes is the number of tree nodes visited.
	Nodes int
	// Truncated reports that the search stopped early — either MaxNodes
	// ran out or the context was cancelled (see Canceled).
	Truncated bool
	// Canceled reports that the context's cancellation or deadline — not
	// the node budget — stopped the search. Canceled implies Truncated.
	Canceled bool
	// Stats instruments the search: node roles, per-level fan-out,
	// pruning effectiveness and evaluation cost. See SearchStats.
	Stats SearchStats
}

// ErrBudget is returned via Result.Truncated semantics; kept for callers
// that prefer errors.
var ErrBudget = errors.New("solver: node budget exhausted")

// root is the tree's bottom element ⊥. Tree nodes are plain traces: the
// persistent representation extends in O(1) with full prefix sharing,
// so no per-node key string is maintained.
var root = trace.Empty

// node is one queued tree node: its trace, and f of it when the
// parent's edge check computed it. The §3.3 tree reaches every trace
// once, so that edge check is the only other read of f(v) there ever
// is; carrying the value down the edge replaces a whole-search memo. f
// is nil when nothing computed it: sons the Theorem 1 fast path
// admitted unevaluated, and the root unless the induction-base check
// ran (see search.rootNode).
type node struct {
	t trace.Trace
	f fn.Tuple
}

// Queue blocks: the first holds queueFirst nodes, each next one twice
// its predecessor, up to queueMax.
const (
	queueFirst = 8
	queueMax   = 256
)

// queue is the BFS work list, a FIFO of node blocks. A slice that pops
// its front and appends at its back loses the front's capacity, so it
// re-allocates and copies the live queue every time it fills and
// allocates several times its peak. Blocks never move: a search
// allocates about its peak queue, and a tiny search one small block. pop
// clears the slot it reads, so a carried f dies when its node is
// visited, and the head's last full-size block is kept for the tail's
// next one.
type queue struct {
	head, tail *queueBlock
	pos        int         // the head's next slot to pop
	size       int         // the tail's size
	spare      *queueBlock // a consumed full-size block, empty
}

// queueBlock is one block of a queue: its filled slots, in a slice
// whose capacity is the block's size.
type queueBlock struct {
	nodes []node
	next  *queueBlock
}

// push appends ns to the back of the queue.
func (q *queue) push(ns ...node) {
	for _, n := range ns {
		if q.tail == nil || len(q.tail.nodes) == cap(q.tail.nodes) {
			q.grow()
		}
		q.tail.nodes = append(q.tail.nodes, n)
	}
}

// grow links a new tail block: the spare if there is one, which fits,
// since only full-size blocks are kept and new blocks are full-size by
// the time one has been consumed, or else a fresh block.
func (q *queue) grow() {
	q.size = min(max(2*q.size, queueFirst), queueMax)
	b := q.spare
	if b == nil {
		b = &queueBlock{nodes: make([]node, 0, q.size)}
	}
	q.spare = nil
	if q.tail == nil {
		q.head = b
	} else {
		q.tail.next = b
	}
	q.tail = b
}

// empty reports whether the queue holds no node. Only the tail may be
// short of full, so the head is empty only when it is also the tail.
func (q *queue) empty() bool { return q.head == nil || q.pos == len(q.head.nodes) }

// pop removes and returns the front node; it reports false when the
// queue is empty.
func (q *queue) pop() (node, bool) {
	if q.empty() {
		return node{}, false
	}
	h := q.head
	n := h.nodes[q.pos]
	h.nodes[q.pos] = node{}
	q.pos++
	if q.pos == cap(h.nodes) {
		q.head, q.pos = h.next, 0
		if q.head == nil {
			q.tail = nil
		}
		if cap(h.nodes) == queueMax {
			h.nodes, h.next = h.nodes[:0], nil
			q.spare = h
		}
	}
	return n, true
}

// drain pops every queued node, in order.
func (q *queue) drain() []node {
	var out []node
	for n, ok := q.pop(); ok; n, ok = q.pop() {
		out = append(out, n)
	}
	return out
}

// search carries the machinery of one tree exploration: the problem,
// a VM session per side, the stats it counts into, and the interned
// candidate events — one Event per (channel, message) built up front,
// so expansion never re-constructs them. It runs on the goroutine that
// called the search; concurrent searches share only the Problem and the
// cached bytecode.
type search struct {
	p Problem
	// fsess and gsess evaluate the two sides' bytecode when the side
	// lowers; nil selects the interpreter for that side. They live as
	// long as the search, so a checkpoint's later legs find their VM
	// frames where the last leg left them.
	fsess, gsess *descvm.Session
	// st is where the running walk counts every limit check, edge and
	// evaluation: run points it at its leg's Result.Stats and clears it
	// when the leg ends, Sample at the walks' stats.
	st *SearchStats
	// cands holds the per-channel candidate events in Channels order —
	// the same data as ev, but expansion iterates it as a slice so the
	// per-node inner loop never touches a map. Each event's Hash64 is
	// precomputed: expansion appends the same few events to thousands of
	// nodes, so each is hashed once per search (trace.AppendPrehashed).
	cands []candSet
	// thm1 is true when the Theorem 1 fast path is active: the
	// description is eligible and the induction base f(⊥) ⊑ g(⊥) holds
	// (see newSearch). Candidates on channels outside supp(f) are then
	// admitted without evaluation.
	thm1 bool
	// f0 and g0 are f(⊥) and g(⊥) when the induction-base check computed
	// them (nil otherwise): the root's limit check reads them instead of
	// applying the sides again.
	f0, g0 fn.Tuple
	// fanout is the total alphabet size across channels — the exact
	// capacity an expanding node's son list can need.
	fanout int
	// sonBuf is the reusable son-slot buffer for expansions below the
	// depth bound: capacity fanout, so expand never reallocates, and the
	// consumer copies the sons into its queue before the next expand
	// reuses the slots.
	sonBuf []node
	// kept is the chunk a capture carves its depth-bound nodes' sons
	// from, which the resume frontier retains: each node's sons are a
	// capacity-clipped window of it, and a full chunk is left to the
	// windows already carved and replaced by one twice its size, up to
	// keptMax.
	kept []node
	// sonIdx holds the flat candidate indices (over Channels × Alphabet)
	// of the sons the last expand admitted, in order, for the shape
	// record a capture leg commits. It stays nil, and expand records
	// nothing, until a capture leg runs.
	sonIdx []int
	// slab holds the trace nodes of admitted sons. Every tree node
	// stays reachable from the Result — a leaf is a solution, a dead
	// leaf or a frontier node, and every interior node lies on a leaf's
	// spine — so a block pins nothing that allocating each node on its
	// own would have freed, bar its last block's unused tail. Sample and
	// CheckInduction keep less, but a block of at most 128 nodes carved
	// in visit order dies with its neighbours.
	slab trace.Slab
}

// candSet is one channel's interned candidate events and their hashes.
type candSet struct {
	ch string
	es []trace.Event
	hs []uint64
	// auto caches the Theorem 1 membership test ch ∉ supp(f); expand
	// reads it per node instead of re-testing the ChanSet. False until
	// newSearch verifies the fast path's induction base.
	auto bool
}

// newSearch builds the search state: a VM session for each side that
// lowers, and the Theorem 1 fast path when the description is eligible
// and its induction base holds.
//
// The fast path is Theorem 1 applied to the son rule. For independent
// sides (supp(f) ∩ supp(g) = ∅) and a candidate edge u → u·e with e
// outside supp(f), f(u·e) = f(u) ⊑ g(u) already holds: every admitted
// node satisfies f ⊑ g by induction along its admitting edge and
// monotonicity of g. So the son is admitted with zero evaluations; the
// admitted tree is identical, only the work changes. An
// ω-approximation left side is not eligible, because its output grows
// with raw trace length.
func newSearch(p Problem) *search {
	s := &search{p: p, cands: make([]candSet, 0, len(p.Channels))}
	if prog, ok := descvm.Compile(p.D.F); ok {
		s.fsess = prog.NewSession()
	}
	if prog, ok := descvm.Compile(p.D.G); ok {
		s.gsess = prog.NewSession()
	}
	for _, c := range p.Channels {
		es := make([]trace.Event, len(p.Alphabet[c]))
		hs := make([]uint64, len(es))
		for i, m := range p.Alphabet[c] {
			es[i] = trace.E(c, m)
			hs[i] = es[i].Hash64()
		}
		s.cands = append(s.cands, candSet{ch: c, es: es, hs: hs})
		s.fanout += len(es)
	}
	s.sonBuf = make([]node, 0, s.fanout)
	if p.D.Thm1Eligible() {
		// Induction base for the fast path's invariant. If it fails, the
		// root has no sons at all (f(⊥) ⊑ f(v) ⊑ g(⊥) for any admitted
		// v), so falling back to the full edge check costs nothing.
		// The two applications are not counted here, and their time is
		// dropped: the search that starts at ⊥ counts them (countBase),
		// and a decoded checkpoint, which runs this check again, carries
		// them in its result already. Both values are kept, not viewed:
		// every Sample walk re-reads them at its root, long after the
		// sessions have moved on.
		var untimed int64
		s.f0 = keep(s.fsess, apply(p.D.F, s.fsess, root, nil, nil, &untimed))
		s.g0 = keep(s.gsess, apply(p.D.G, s.gsess, root, nil, nil, &untimed))
		s.thm1 = s.f0.Leq(s.g0)
		if s.thm1 {
			for i := range s.cands {
				s.cands[i].auto = !p.D.F.Support.Has(s.cands[i].ch)
			}
		}
	}
	return s
}

// countBase counts the induction-base check's applications of f and g
// at ⊥ into st, once, for a search that starts at ⊥.
func (s *search) countBase(st *SearchStats) {
	if s.f0 != nil {
		st.Eval.FApplies++
		st.Eval.GApplies++
	}
}

// rootNode is ⊥ as a queued node, carrying f(⊥) when the
// induction-base check computed it.
func (s *search) rootNode() node { return node{t: root, f: s.f0} }

// apply applies one side to u·e, or to u itself when e is nil. A side
// that lowered to bytecode is evaluated by sess into a view of its
// frame, without building u·e: the caller may read the view until
// sess's next call and must keep it to retain it. Otherwise the
// interpreter applies the side, adding its wall-clock time to nanos
// (see EvalStats.FNanos), and the caller owns the result. The
// interpreter can apply a side only to a built trace, so it leaves u·e
// in *son, which must be non-nil with e, for a caller that admits the
// son; the VM leaves *son alone.
func apply(side fn.TraceFn, sess *descvm.Session, u trace.Trace, e *trace.Event, son *trace.Trace, nanos *int64) fn.Tuple {
	if sess != nil {
		if e == nil {
			return sess.View(u)
		}
		return sess.ViewSon(u, *e)
	}
	if e != nil {
		u = u.Append(*e)
		*son = u
	}
	start := time.Now()
	v := side.Apply(u)
	*nanos += time.Since(start).Nanoseconds()
	return v
}

// keep returns a value apply produced in a form the caller may retain:
// a copy of a view, the interpreter's own result as it is.
func keep(sess *descvm.Session, v fn.Tuple) fn.Tuple {
	if sess == nil {
		return v
	}
	return sess.Keep(v)
}

// f applies the description's left side to u·e (to u when e is nil),
// counting the application; see apply for what the caller may do with
// the value, and for son.
func (s *search) f(u trace.Trace, e *trace.Event, son *trace.Trace) fn.Tuple {
	s.st.Eval.FApplies++
	return apply(s.p.D.F, s.fsess, u, e, son, &s.st.Eval.FNanos)
}

// g is f for the right side, at u itself.
func (s *search) g(u trace.Trace) fn.Tuple {
	s.st.Eval.GApplies++
	return apply(s.p.D.G, s.gsess, u, nil, nil, &s.st.Eval.GNanos)
}

// edge is the §3.3 edge check f(u·e) ⊑ g(u), given gu = g(u), counted
// as one application of f. It returns the verdict and, when full is set
// and the son is admitted, f(u·e) as apply returns it; son is as for
// apply. below reports f(u) ⊑ g(u): at such a node a side on bytecode
// takes the sliced check (descvm.Session.SonLeq), which evaluates and
// compares only the components e's channel reaches. Every other
// component of f(u·e) is f(u)'s, so the verdict is the full check's.
// Elsewhere — at ⊥ when the induction base fails, below a g that is not
// monotone, and on the interpreter — the whole of f(u·e) is compared.
func (s *search) edge(u trace.Trace, e *trace.Event, gu fn.Tuple, below, full bool, son *trace.Trace) (fn.Tuple, bool) {
	if s.fsess == nil || !below {
		v := s.f(u, e, son)
		return v, v.Leq(gu)
	}
	s.st.Eval.FApplies++
	return s.fsess.SonLeq(u, *e, gu, full)
}

// Enumerate explores the Section 3.3 tree breadth-first to the problem's
// bounds and classifies every visited node. Each node's f and g are
// applied at most once: f(v) when its parent's edge check admits it,
// g(u) at u's limit check, and both carried to their one other read
// (see node); Result.Stats accounts for every node, edge and
// evaluation.
//
// The search runs on the calling goroutine. The context is checked once
// per visited node: cancellation or an expired deadline stops the
// search with Truncated and Canceled set, so adversarial problems (wide
// alphabets, deep probes) cannot run unbounded when the caller holds a
// deadline.
func Enumerate(ctx context.Context, p Problem) Result {
	res, _ := enumerate(ctx, p, false)
	return res
}

// EnumerateParallel is Enumerate; workers is ignored.
//
// Deprecated: the search runs on one goroutine. Kept only for the
// benchmark module's callers until its next change (ROADMAP item 8).
func EnumerateParallel(ctx context.Context, p Problem, workers int) Result { return Enumerate(ctx, p) }

// enumerate runs a search from ⊥, in capture mode (returning its
// Checkpoint) when capture is set.
func enumerate(ctx context.Context, p Problem, capture bool) (Result, *Checkpoint) {
	s := newSearch(p)
	var cp *Checkpoint
	if capture {
		cp = &Checkpoint{s: s}
	}
	var res Result
	s.countBase(&res.Stats)
	var q queue
	q.push(s.rootNode())
	s.run(ctx, &res, &q, cp)
	if cp != nil {
		cp.done = res
	}
	return res, cp
}

// run is the one BFS core, shared by Enumerate and the checkpoint
// capture/resume paths. It folds classifications into res, which may
// arrive pre-loaded with an already-classified prefix (a resumed
// search); q holds the work list in canonical BFS order.
//
// Each step visits the head of the queue and commits it (step): the
// node is counted, classified and its sons appended to the queue. The
// context and the budget are checked before every step, so a stopped
// search has always committed — and evaluated — exactly a prefix of the
// canonical order, the next node of which it reports as Skipped.
//
// A nil cp selects the plain semantics above. A non-nil cp selects
// capture semantics: depth-bound nodes are fully expanded (instead of
// probed with hasSon) and their admitted sons retained in cp as the
// resume frontier, every committed node's shape record is appended to
// cp's, and a truncated run drains its unclassified queue remainder into
// cp.pending. Classification of every node is identical in
// both modes — a bound node is Frontier iff it has at least one son —
// only the bound-level edge accounting differs (expand visits every
// candidate where hasSon stops at the first witness, and never counts
// FrontierWitnesses). See Checkpoint for how that difference is reported.
func (s *search) run(ctx context.Context, res *Result, q *queue, cp *Checkpoint) {
	p := s.p
	st := &res.Stats
	s.st = st
	begin := time.Now()
	st.Thm1FastPath = s.thm1
	if cp != nil && s.sonIdx == nil {
		s.sonIdx = make([]int, 0, s.fanout)
	}
	for !q.empty() {
		canceled := ctx.Err() != nil
		if canceled || (p.MaxNodes > 0 && res.Nodes >= p.MaxNodes) {
			// The first node past the stopping point is visited but
			// skipped: counted in Nodes and Stats.Visited, never
			// classified.
			res.Truncated, res.Canceled = true, canceled
			res.Nodes++
			st.Visited++
			st.Skipped++
			if cp != nil {
				cp.pending = q.drain()
			}
			break
		}
		cur, _ := q.pop()
		q.push(s.step(res, cp, cur)...)
	}
	s.st = nil
	st.CompiledEval = s.fsess != nil && s.gsess != nil
	st.Elapsed += time.Since(begin)
}

// step visits one node and commits it. The visit decides the limit
// condition and whether the node has a son — expanding it below the
// depth bound (into sonBuf) or, in capture mode, at the bound (into a
// window of the kept chunk, which the resume frontier retains), and
// probing with hasSon otherwise; g(cur) and whether f(cur) ⊑ g(cur) go
// from the limit check to the expansion. The commit folds the node into
// the result in canonical order — node and level counts, solution
// (streamed through OnSolution), role, and in capture mode the node's
// shape record and the retained frontier — and step returns the sons
// the queue must take (none at the depth bound).
func (s *search) step(res *Result, cp *Checkpoint, cur node) []node {
	u := cur.t
	gu, solution, below := s.limit(cur)
	var sons []node
	var hasSon bool
	switch {
	case u.Len() < s.p.MaxDepth:
		sons = s.expand(u, gu, below, s.sonBuf[:0])
	case cp != nil:
		sons = s.expandKept(u, gu, below)
	default:
		hasSon = s.hasSon(u, gu, below)
	}
	hasSon = hasSon || len(sons) > 0

	st := s.st
	if cp != nil {
		cp.tree = appendRecord(cp.tree, solution, s.sonIdx)
	}
	res.Nodes++
	st.Visited++
	lvl := st.level(u.Len())
	lvl.Nodes++
	if solution {
		res.Solutions = append(res.Solutions, u)
		st.Solutions++
		lvl.Solutions++
		if s.p.OnSolution != nil {
			s.p.OnSolution(u)
		}
	}
	switch {
	case !hasSon && solution:
		st.Closed++
	case !hasSon:
		res.DeadLeaves = append(res.DeadLeaves, u)
		st.Dead++
	case u.Len() < s.p.MaxDepth:
		st.Interior++
		return sons
	default:
		res.Frontier = append(res.Frontier, u)
		st.Frontier++
		if cp != nil {
			cp.frontier = append(cp.frontier, frontierEntry{node: u, sons: sons})
			st.RetainedSons += len(sons)
		}
	}
	return nil
}

// limit evaluates the limit condition f = g at n and returns g of it,
// which the node's expansion reads again, together with whether
// f(n) ⊑ g(n), which licenses the sliced edge check at n's sons (see
// edge). Every node reached is reachable only through smooth edges, so
// the limit condition alone decides whether it is a smooth solution. f
// comes from n when its parent's edge check carried it, and the root
// takes both sides from the induction-base check when that ran; each
// such read counts as a hit. Applied values are views: f(n) dies here,
// and g(n) lives through n's expansion, which evaluates only f, on the
// other session.
//
// With a monotone g, f ⊑ g fails only at ⊥, when the induction base
// does: an admitted son v of u has f(v) ⊑ g(u) ⊑ g(v). Testing it per
// node keeps the tree exact below a g that is not monotone too, and
// costs nothing at a solution, where f = g.
func (s *search) limit(n node) (gu fn.Tuple, solution, below bool) {
	s.st.LimitChecks++
	fu := n.f
	if fu != nil {
		s.st.Eval.FHits++
	} else {
		fu = s.f(n.t, nil, nil)
	}
	if n.t.Len() == 0 && s.g0 != nil {
		s.st.Eval.GHits++
		gu = s.g0
	} else {
		gu = s.g(n.t)
	}
	solution = fu.Equal(gu)
	return gu, solution, solution || fu.Leq(gu)
}

// expandKept is expand for a capture's depth-bound node, whose sons the
// resume frontier retains: it appends them to the kept chunk, first
// starting a fresh chunk when fewer than fanout slots are left, and
// returns them as a window of the chunk whose capacity is clipped to
// its length.
func (s *search) expandKept(u trace.Trace, gu fn.Tuple, below bool) []node {
	if cap(s.kept)-len(s.kept) < s.fanout {
		s.kept = make([]node, 0, max(s.fanout, min(2*cap(s.kept), keptMax)))
	}
	n := len(s.kept)
	s.kept = s.expand(u, gu, below, s.kept)
	return s.kept[n:len(s.kept):len(s.kept)]
}

// keptMax caps the size of the kept chunks, which double from the
// fan-out: a capture's unused chunk tail stays retained with its
// frontier, so the cap bounds that waste to a few KB, about what a
// slice of fanout slots per frontier node wastes on a small capture.
const keptMax = 64

// expand generates the smooth sons of u, given gu = g(u) from u's limit
// check: g is never re-applied here, and the check's reuse of it is
// counted once per node — not once per candidate, and not at all when
// the Theorem 1 fast path admits every candidate. The edge check reads
// f(u·e) as a view without building u·e; only an admitted son gets its
// trace — an O(1) persistent extension sharing u's spine — and a kept
// copy of that f to carry. Each rejected candidate is a whole subtree
// of the unpruned tree cut before any of it is built, so on bytecode it
// allocates nothing.
//
// below reports f(u) ⊑ g(u), from the limit check: it licenses the
// sliced edge check (see edge). expand appends the sons to dst, which
// must have room for fanout more — the search's reusable buffer, or the
// kept chunk for sons a capture retains (see expandKept) — and returns
// it.
func (s *search) expand(u trace.Trace, gu fn.Tuple, below bool, dst []node) []node {
	st := s.st
	sons := dst
	s.sonIdx = s.sonIdx[:0]
	lvl := st.level(u.Len() + 1)
	guRead := false
	flat := 0
	for ci := range s.cands {
		// Fast path (Theorem 1): a channel outside supp(f) means
		// f(u·e) = f(u), and f(u) ⊑ g(u) holds at every admitted node, so
		// the edge condition f(v) ⊑ g(u) is guaranteed — admit without
		// evaluating.
		c := &s.cands[ci]
		auto := c.auto
		for i := range c.es {
			var v node
			st.EdgesChecked++
			if auto {
				st.Thm1AutoEdges++
			} else {
				if !guRead {
					st.Eval.GHits++
					guRead = true
				}
				f, ok := s.edge(u, &c.es[i], gu, below, true, &v.t)
				if !ok {
					st.SubtreesPruned++
					lvl.Pruned++
					continue
				}
				v.f = keep(s.fsess, f)
			}
			st.EdgesKept++
			if v.t.IsEmpty() {
				v.t = s.slab.AppendPrehashed(u, c.es[i], c.hs[i])
			}
			sons = append(sons, v)
			if s.sonIdx != nil {
				s.sonIdx = append(s.sonIdx, flat+i)
			}
		}
		flat += len(c.es)
	}
	return sons
}

// hasSon reports whether a depth-bound node has a smooth son, stopping at
// the first witness; gu is g(u) from the limit check, as for expand.
// Failed candidates are pruned subtrees like expand's; the witness is
// counted separately since it is never enqueued, so hasSon builds no
// candidate's trace. A Theorem-1 auto-admitted candidate is an
// immediate witness.
func (s *search) hasSon(u trace.Trace, gu fn.Tuple, below bool) bool {
	st := s.st
	lvl := st.level(u.Len() + 1)
	guRead := false
	for ci := range s.cands {
		c := &s.cands[ci]
		auto := c.auto
		for i := range c.es {
			st.EdgesChecked++
			if auto {
				st.Thm1AutoEdges++
				st.FrontierWitnesses++
				return true
			}
			if !guRead {
				st.Eval.GHits++
				guRead = true
			}
			var v trace.Trace
			if _, ok := s.edge(u, &c.es[i], gu, below, false, &v); ok {
				st.FrontierWitnesses++
				return true
			}
			st.SubtreesPruned++
			lvl.Pruned++
		}
	}
	return false
}

// Contains reports whether the result's solutions include t.
func (r Result) Contains(t trace.Trace) bool {
	for _, s := range r.Solutions {
		if s.Equal(t) {
			return true
		}
	}
	return false
}

// SolutionKeys returns the canonical strings of all solutions, sorted —
// convenient for table-driven tests. These are the human-readable
// renderings (Trace.String), not the (hash, length) trace keys. Every
// solution renders through one reused buffer.
func (r Result) SolutionKeys() []string {
	keys := make([]string, len(r.Solutions))
	var b []byte
	for i, s := range r.Solutions {
		b = s.AppendString(b[:0])
		keys[i] = string(b)
	}
	sort.Strings(keys)
	return keys
}

// IsTreeNode reports whether t is a node of the Section 3.3 tree, i.e.
// every consecutive prefix pair is a smooth edge. Every communication
// history of a process — every prefix of a run trace, quiescent or not —
// must be a tree node; the conformance harness (package check) relies on
// this.
func IsTreeNode(d desc.Description, t trace.Trace) bool {
	ok := true
	t.PrePairs(func(u, v trace.Trace) bool {
		ok = d.EdgeOK(u, v)
		return ok
	})
	return ok
}

// CheckInduction discharges the Section 8.4 smooth-solution induction
// rule over the bounded tree: it verifies φ(⊥), then checks the inductive
// step along every explored edge, and — soundness of the rule — confirms
// φ on every smooth solution. It returns an error describing the first
// failed premise; if the premises hold but some solution violates φ, the
// returned error says so (and would indicate a bug, since the rule is
// sound).
//
// The tree is explored exactly once: each dequeued node is classified by
// the limit condition during the same walk that checks the inductive
// step along its out-edges, carrying f and g down the tree as Enumerate
// does — there is no second Enumerate pass.
func CheckInduction(ctx context.Context, p Problem, phi func(trace.Trace) bool) error {
	if !phi(trace.Empty) {
		return errors.New("solver: induction base φ(⊥) fails")
	}
	s := newSearch(p)
	s.st = new(SearchStats) // the walk's counts are not reported
	var q queue
	q.push(s.rootNode())
	nodes := 0
	var unsound error
	for n, ok := q.pop(); ok; n, ok = q.pop() {
		u := n.t
		nodes++
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("solver: induction check stopped: %w", err)
		}
		if p.MaxNodes > 0 && nodes > p.MaxNodes {
			return ErrBudget
		}
		// Soundness check, folded into the single walk: a node that
		// satisfies the limit condition is a smooth solution, and φ must
		// hold there. The verdict is deferred — premise failures found
		// anywhere in the walk take precedence, matching the rule's
		// reading (an unsound conclusion only matters once the premises
		// are discharged).
		gu, solution, below := s.limit(n)
		if unsound == nil && solution && !phi(u) {
			unsound = fmt.Errorf("solver: induction rule unsound?! φ fails on smooth solution %s", u)
		}
		if u.Len() >= p.MaxDepth {
			continue
		}
		for _, v := range s.expand(u, gu, below, s.sonBuf[:0]) {
			if err := p.D.InductionPremise(phi, u, v.t); err != nil {
				return err
			}
			q.push(v)
		}
	}
	return unsound
}
