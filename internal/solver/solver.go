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
	Solutions NodeList
	// Frontier are the depth-bound nodes that still have sons (or are at
	// MaxDepth); every ω smooth solution within the alphabet passes
	// through the frontier.
	Frontier NodeList
	// DeadLeaves are nodes with no sons that fail the limit condition:
	// communication histories after which the process is stuck yet its
	// equations do not hold. (For a well-formed process description these
	// are nonquiescent histories whose extensions all left the alphabet.)
	DeadLeaves NodeList
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

// fifo is a first-in first-out list held in chunks whose sizes double
// from fifoFirst elements, or from a reserved first chunk, to fifoMax.
// pop clears the slot it reads, so a carried value dies with its visit,
// and a consumed full-size chunk is kept as the tail's next one: a
// growing fifo allocates about its peak length, and a steady one
// nothing.
type fifo[T any] struct {
	chunks [][]T // oldest first; only the last may have room
	head   int   // the next slot to pop in chunks[0]
	n      int
	spare  []T // a consumed full-size chunk, empty
}

const (
	fifoFirst = 16
	fifoMax   = 1024
)

func (q *fifo[T]) len() int { return q.n }

// reserve makes an empty fifo's first chunk hold n elements, for a
// caller that knows how many it will push: one allocation, where
// growing chunk by chunk takes one per fifoMax elements.
func (q *fifo[T]) reserve(n int) {
	if len(q.chunks) == 0 && n > fifoFirst {
		q.chunks = append(q.chunks, make([]T, 0, n))
	}
}

func (q *fifo[T]) push(v T) {
	k := len(q.chunks) - 1
	if k < 0 || len(q.chunks[k]) == cap(q.chunks[k]) {
		size := fifoFirst
		if k >= 0 {
			size = min(2*cap(q.chunks[k]), fifoMax)
		}
		c := q.spare
		if size < fifoMax || c == nil {
			c = make([]T, 0, size)
		}
		q.spare = nil
		q.chunks = append(q.chunks, c)
		k++
	}
	q.chunks[k] = append(q.chunks[k], v)
	q.n++
}

// pop removes and returns the oldest element; the fifo must not be
// empty.
func (q *fifo[T]) pop() T {
	var zero T
	c := q.chunks[0]
	v := c[q.head]
	c[q.head] = zero
	q.head++
	q.n--
	if q.head == len(c) {
		q.head = 0
		if len(q.chunks) == 1 {
			q.chunks[0] = c[:0]
		} else {
			if cap(c) == fifoMax {
				q.spare = c[:0]
			}
			q.chunks = append(q.chunks[:0], q.chunks[1:]...)
		}
	}
	return v
}

// each calls visit on every element, oldest first.
func (q *fifo[T]) each(visit func(T)) {
	for p, n := q.start(), q.n; n > 0; n-- {
		var v T
		v, p = q.at(p)
		visit(v)
	}
}

// fifoPos is a position in a fifo: slot i of chunk k.
type fifoPos struct{ k, i int }

// start returns the position of the oldest element.
func (q *fifo[T]) start() fifoPos { return fifoPos{0, q.head} }

// at returns the element at p, which must hold one, and the position
// after it.
func (q *fifo[T]) at(p fifoPos) (T, fifoPos) {
	v := q.chunks[p.k][p.i]
	if p.i++; p.i == len(q.chunks[p.k]) {
		p = fifoPos{p.k + 1, 0}
	}
	return v, p
}

// queue is a BFS work list: tree nodes in visit order, and beside them,
// in the same order, the f that each node that carries one carries. The
// §3.3 tree reaches every trace once, so the edge check that admits a
// son is the only other read of f(v) there ever is; carrying the value
// down the edge replaces a whole-search memo. Sons the Theorem 1 fast
// path admitted unevaluated carry nothing, and neither does ⊥, whose f
// the induction-base check keeps (see search.carries and search.pop).
// The IDs hold no pointer, and the f values are carved from the
// search's arena.
type queue struct {
	ids fifo[trace.ID]
	fs  fifo[fn.Tuple]
}

func (q *queue) len() int { return q.ids.len() }

// push appends node u, and f when u carries it.
func (q *queue) push(u trace.ID, f fn.Tuple, carried bool) {
	q.ids.push(u)
	if carried {
		q.fs.push(f)
	}
}

// pushAll appends r's nodes and values, leaving r as it was.
func (q *queue) pushAll(r *queue) {
	r.ids.each(q.ids.push)
	r.fs.each(q.fs.push)
}

// reset empties the queue, keeping its slices.
func (q *queue) reset() {
	for q.ids.len() > 0 {
		q.ids.pop()
	}
	for q.fs.len() > 0 {
		q.fs.pop()
	}
}

// search carries the machinery of one tree exploration: the problem,
// a VM session per side, the stats it counts into, and the tree. It
// runs on the goroutine that called the search; concurrent searches
// share only the Problem and the cached bytecode.
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
	// tree is every node the search admitted, as records over the
	// candidate table: one event per (channel, message), in Channels ×
	// Alphabet order, so a node's event index is the flat candidate
	// index a checkpoint's shape records store. Expansion iterates the
	// table as a slice and never touches a map, and each event is
	// hashed once per search.
	tree *trace.Tree
	// auto caches, per candidate, the Theorem 1 membership test: its
	// channel lies outside supp(f). All false until newSearch verifies
	// the fast path's induction base.
	auto []bool
	// thm1 is true when the Theorem 1 fast path is active: the
	// description is eligible and the induction base f(⊥) ⊑ g(⊥) holds
	// (see newSearch). Candidates on channels outside supp(f) are then
	// admitted without evaluation.
	thm1 bool
	// f0 and g0 are f(⊥) and g(⊥) when the induction-base check computed
	// them (nil otherwise): the root's limit check reads them instead of
	// applying the sides again.
	f0, g0 fn.Tuple
	// arena holds the carried f values the VM computes: one allocation
	// per chunk, not two per value, and a chunk dies with the last value
	// carved from it.
	arena descvm.Arena
	// spines holds every node's trace, by ID, when a side does not lower
	// or a caller reads every node (CheckInduction): the interpreter
	// applies a side only to a built trace. It is nil otherwise.
	spines []trace.Trace
	// son is the trace of the son the interpreter's last edge check
	// built, which expand's add reuses when it admits that son.
	son trace.Trace
}

// newSearch builds the search state: a VM session for each side that
// lowers, the tree over the candidate table, and the Theorem 1 fast
// path when the description is eligible and its induction base holds.
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
	s := &search{p: p}
	if prog, ok := descvm.Compile(p.D.F); ok {
		s.fsess = prog.NewSession()
	}
	if prog, ok := descvm.Compile(p.D.G); ok {
		s.gsess = prog.NewSession()
	}
	n := 0
	for _, c := range p.Channels {
		n += len(p.Alphabet[c])
	}
	cands := make([]trace.Event, 0, n)
	for _, c := range p.Channels {
		for _, m := range p.Alphabet[c] {
			cands = append(cands, trace.E(c, m))
		}
	}
	s.tree = trace.NewTree(cands)
	s.auto = make([]bool, n)
	if s.fsess == nil || s.gsess == nil {
		s.spines = []trace.Trace{trace.Empty}
	}
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
		s.f0 = keep(s.fsess, s.apply(p.D.F, s.fsess, trace.Root, -1, &untimed))
		s.g0 = keep(s.gsess, s.apply(p.D.G, s.gsess, trace.Root, -1, &untimed))
		s.thm1 = s.f0.Leq(s.g0)
		if s.thm1 {
			for e, ev := range cands {
				s.auto[e] = !p.D.F.Support.Has(ev.Ch)
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

// carries reports whether queued node u carries its f: every son but
// one a Theorem 1 auto edge admitted unevaluated. ⊥ takes f(⊥), if the
// induction-base check computed it, from the search instead.
func (s *search) carries(u trace.ID) bool {
	_, e := s.tree.Edge(u)
	return !s.auto[e]
}

// pop removes the head of q and returns it with the f it carries, nil
// when it carries none.
func (s *search) pop(q *queue) (trace.ID, fn.Tuple) {
	u := q.ids.pop()
	switch {
	case u == trace.Root:
		return u, s.f0
	case s.carries(u):
		return u, q.fs.pop()
	}
	return u, nil
}

// add adds u's son by candidate e to the tree and returns it. With
// spines kept, the son's trace is the one the interpreter's edge check
// just built, if it built one, and u's extended by e otherwise.
func (s *search) add(u trace.ID, e int) trace.ID {
	v := s.tree.Add(u, e)
	if s.spines != nil {
		t := s.son
		if t.IsEmpty() {
			t = s.tree.Extend(s.spines[u], e)
		}
		s.spines = append(s.spines, t)
	}
	return v
}

// trace builds node u's trace, or reads it from spines when they are
// kept.
func (s *search) trace(u trace.ID) trace.Trace {
	if s.spines != nil {
		return s.spines[u]
	}
	return s.tree.Trace(u)
}

// apply applies one side to u's son by candidate e, or to u itself
// when e < 0. A side that lowered to bytecode is evaluated by sess into
// a view of its frame, without adding the son to the tree: the caller
// may read the view until sess's next call and must keep it to retain
// it. Otherwise the interpreter applies the side to u's trace from
// spines, extended by e into s.son for a caller that admits the son,
// adding its wall-clock time to nanos (see EvalStats.FNanos), and the
// caller owns the result.
func (s *search) apply(side fn.TraceFn, sess *descvm.Session, u trace.ID, e int, nanos *int64) fn.Tuple {
	if sess != nil {
		if e < 0 {
			return sess.View(s.tree, u)
		}
		return sess.ViewSon(s.tree, u, e)
	}
	t := s.spines[u]
	if e >= 0 {
		t = s.tree.Extend(t, e)
		s.son = t
	}
	start := time.Now()
	v := side.Apply(t)
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

// carry is keep for the f a queued son carries: a copy of a view is
// carved from the search's arena.
func (s *search) carry(v fn.Tuple) fn.Tuple {
	if s.fsess == nil {
		return v
	}
	return s.fsess.KeepIn(v, &s.arena)
}

// f applies the description's left side to u's son by e (to u when
// e < 0), counting the application; see apply for what the caller may
// do with the value.
func (s *search) f(u trace.ID, e int) fn.Tuple {
	s.st.Eval.FApplies++
	return s.apply(s.p.D.F, s.fsess, u, e, &s.st.Eval.FNanos)
}

// g is f for the right side, at u itself.
func (s *search) g(u trace.ID) fn.Tuple {
	s.st.Eval.GApplies++
	return s.apply(s.p.D.G, s.gsess, u, -1, &s.st.Eval.GNanos)
}

// edge is the §3.3 edge check f(u·e) ⊑ g(u), given gu = g(u), counted
// as one application of f. It returns the verdict and, when full is set
// and the son is admitted, f(u·e) as apply returns it. below reports
// f(u) ⊑ g(u): at such a node a side on bytecode takes the sliced check
// (descvm.Session.SonLeq), which evaluates and compares only the
// components e's channel reaches. Every other component of f(u·e) is
// f(u)'s, so the verdict is the full check's. Elsewhere — at ⊥ when the
// induction base fails, below a g that is not monotone, and on the
// interpreter — the whole of f(u·e) is compared.
func (s *search) edge(u trace.ID, e int, gu fn.Tuple, below, full bool) (fn.Tuple, bool) {
	if s.fsess == nil || !below {
		v := s.f(u, e)
		return v, v.Leq(gu)
	}
	s.st.Eval.FApplies++
	return s.fsess.SonLeq(s.tree, u, e, gu, full)
}

// Enumerate explores the Section 3.3 tree breadth-first to the problem's
// bounds and classifies every visited node. Each node's f and g are
// applied at most once: f(v) when its parent's edge check admits it,
// g(u) at u's limit check, and both carried to their one other read
// (see queue); Result.Stats accounts for every node, edge and
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
	q.push(trace.Root, nil, false)
	s.run(ctx, &res, &q, cp)
	if cp != nil {
		cp.done = res
	}
	return res, cp
}

// run is the one BFS core, shared by Enumerate and the checkpoint
// capture/resume paths. It folds classifications into res, which may
// arrive pre-loaded with an already-classified prefix (a resumed
// search); q holds the work list in canonical BFS order. When the leg
// ends, res's lists are published on a snapshot of the tree.
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
// cp's, and a truncated run leaves its unclassified queue remainder in
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
	done := ctx.Done()
	for q.len() > 0 {
		canceled := stopped(done)
		if canceled || (p.MaxNodes > 0 && res.Nodes >= p.MaxNodes) {
			// The first node past the stopping point is visited but
			// skipped: counted in Nodes and Stats.Visited, never
			// classified.
			res.Truncated, res.Canceled = true, canceled
			res.Nodes++
			st.Visited++
			st.Skipped++
			if cp != nil {
				cp.pending, *q = *q, queue{}
			}
			break
		}
		u, f := s.pop(q)
		s.step(res, cp, q, u, f)
	}
	s.st = nil
	st.CompiledEval = s.fsess != nil && s.gsess != nil
	st.Elapsed += time.Since(begin)
	s.publish(res, cp != nil)
}

// stopped polls a context's Done channel without blocking. A search
// reads the channel once and polls it at every node, where ctx.Err
// would take the context's lock each time.
func stopped(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// publish points res's lists at the tree, or, when a later leg may add
// nodes to it (grows), at a snapshot of the tree as it stands: a
// Result's readers read only records written before it, which the
// search never writes again, so they need no lock while a later leg
// adds nodes.
func (s *search) publish(res *Result, grows bool) {
	t := s.tree
	if grows {
		t = new(trace.Tree)
		*t = *s.tree
	}
	res.Solutions.tree, res.Frontier.tree, res.DeadLeaves.tree = t, t, t
}

// step visits node u, which carries fu (nil if nothing computed it),
// and commits it. The visit decides the limit condition and whether the
// node has a son — expanding it below the depth bound, onto q, or, in
// capture mode, at the bound, onto the resume frontier cp.retained, and
// probing with hasSon otherwise; g(u) and whether f(u) ⊑ g(u) go from
// the limit check to the expansion. The commit folds the node into the
// result in canonical order — node and level counts, solution (streamed
// through OnSolution) and role — and in capture mode appends the node's
// shape record.
func (s *search) step(res *Result, cp *Checkpoint, q *queue, u trace.ID, fu fn.Tuple) {
	gu, solution, below := s.limit(u, fu)
	depth := s.tree.Len(u)
	first := s.tree.Size()
	sons, hasSon := 0, false
	switch {
	case depth < s.p.MaxDepth:
		sons = s.expand(u, gu, below, q)
	case cp != nil:
		sons = s.expand(u, gu, below, &cp.retained)
	default:
		hasSon = s.hasSon(u, gu, below)
	}
	hasSon = hasSon || sons > 0

	st := s.st
	if cp != nil {
		cp.shape = appendRecord(cp.shape, solution, s.tree, first, sons)
	}
	res.Nodes++
	st.Visited++
	lvl := st.level(depth)
	lvl.Nodes++
	if solution {
		res.Solutions.ids = append(res.Solutions.ids, u)
		st.Solutions++
		lvl.Solutions++
		if s.p.OnSolution != nil {
			s.p.OnSolution(s.trace(u))
		}
	}
	switch {
	case !hasSon && solution:
		st.Closed++
	case !hasSon:
		res.DeadLeaves.ids = append(res.DeadLeaves.ids, u)
		st.Dead++
	case depth < s.p.MaxDepth:
		st.Interior++
	default:
		res.Frontier.ids = append(res.Frontier.ids, u)
		st.Frontier++
		if cp != nil {
			st.RetainedSons += sons
		}
	}
}

// limit evaluates the limit condition f = g at u, given fu = f(u) when
// u carried it, and returns g(u), which the node's expansion reads
// again, together with whether f(u) ⊑ g(u), which licenses the sliced
// edge check at u's sons (see edge). Every node reached is reachable
// only through smooth edges, so the limit condition alone decides
// whether it is a smooth solution. The root takes both sides from the
// induction-base check when that ran; each such read, and each carried
// f, counts as a hit. Applied values are views: f(u) dies here, and
// g(u) lives through u's expansion, which evaluates only f, on the
// other session.
//
// With a monotone g, f ⊑ g fails only at ⊥, when the induction base
// does: an admitted son v of u has f(v) ⊑ g(u) ⊑ g(v). Testing it per
// node keeps the tree exact below a g that is not monotone too, and
// costs nothing at a solution, where f = g.
func (s *search) limit(u trace.ID, fu fn.Tuple) (gu fn.Tuple, solution, below bool) {
	s.st.LimitChecks++
	if fu != nil {
		s.st.Eval.FHits++
	} else {
		fu = s.f(u, -1)
	}
	if u == trace.Root && s.g0 != nil {
		s.st.Eval.GHits++
		gu = s.g0
	} else {
		gu = s.g(u)
	}
	solution = fu.Equal(gu)
	return gu, solution, solution || fu.Leq(gu)
}

// expand generates the smooth sons of u, given gu = g(u) from u's limit
// check: g is never re-applied here, and the check's reuse of it is
// counted once per node — not once per candidate, and not at all when
// the Theorem 1 fast path admits every candidate. The edge check reads
// f(u·e) as a view without adding u·e to the tree; only an admitted son
// gets its record — 24 bytes with no pointer — and a copy of that f,
// carved from the arena, to carry. Each rejected candidate is a whole
// subtree of the unpruned tree cut before any of it is built, so on
// bytecode it allocates nothing.
//
// below reports f(u) ⊑ g(u), from the limit check: it licenses the
// sliced edge check (see edge). expand adds the sons to the tree, in
// candidate order, pushes them onto dst and returns how many there are.
func (s *search) expand(u trace.ID, gu fn.Tuple, below bool, dst *queue) int {
	st := s.st
	lvl := st.level(s.tree.Len(u) + 1)
	guRead := false
	n := 0
	for e, auto := range s.auto {
		// Fast path (Theorem 1): a channel outside supp(f) means
		// f(u·e) = f(u), and f(u) ⊑ g(u) holds at every admitted node, so
		// the edge condition f(v) ⊑ g(u) is guaranteed — admit without
		// evaluating.
		st.EdgesChecked++
		var f fn.Tuple
		s.son = trace.Empty
		if auto {
			st.Thm1AutoEdges++
		} else {
			if !guRead {
				st.Eval.GHits++
				guRead = true
			}
			v, ok := s.edge(u, e, gu, below, true)
			if !ok {
				st.SubtreesPruned++
				lvl.Pruned++
				continue
			}
			f = s.carry(v)
		}
		st.EdgesKept++
		dst.push(s.add(u, e), f, !auto)
		n++
	}
	return n
}

// hasSon reports whether a depth-bound node has a smooth son, stopping at
// the first witness; gu is g(u) from the limit check, as for expand.
// Failed candidates are pruned subtrees like expand's; the witness is
// counted separately since it is never enqueued, so hasSon adds no node
// to the tree. A Theorem-1 auto-admitted candidate is an immediate
// witness.
func (s *search) hasSon(u trace.ID, gu fn.Tuple, below bool) bool {
	st := s.st
	lvl := st.level(s.tree.Len(u) + 1)
	guRead := false
	for e, auto := range s.auto {
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
		if _, ok := s.edge(u, e, gu, below, false); ok {
			st.FrontierWitnesses++
			return true
		}
		st.SubtreesPruned++
		lvl.Pruned++
	}
	return false
}

// Contains reports whether the result's solutions include t.
func (r Result) Contains(t trace.Trace) bool {
	k := t.Key()
	for i := range r.Solutions.Len() {
		if r.Solutions.Key(i) == k && r.Solutions.At(i).Equal(t) {
			return true
		}
	}
	return false
}

// SolutionKeys returns the canonical strings of all solutions, sorted —
// convenient for table-driven tests. These are the human-readable
// renderings (Trace.String), not the (hash, length) trace keys. Every
// solution renders from the tree's records through one reused buffer,
// so no trace is built.
func (r Result) SolutionKeys() []string {
	keys := make([]string, r.Solutions.Len())
	var b []byte
	for i := range keys {
		b = r.Solutions.AppendString(b[:0], i)
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
// does — there is no second Enumerate pass. φ reads traces, so the walk
// keeps every node's (search.spines).
func CheckInduction(ctx context.Context, p Problem, phi func(trace.Trace) bool) error {
	if !phi(trace.Empty) {
		return errors.New("solver: induction base φ(⊥) fails")
	}
	s := newSearch(p)
	if s.spines == nil {
		s.spines = []trace.Trace{trace.Empty}
	}
	s.st = new(SearchStats) // the walk's counts are not reported
	var q queue
	q.push(trace.Root, nil, false)
	nodes := 0
	var unsound error
	done := ctx.Done()
	for q.len() > 0 {
		u, f := s.pop(&q)
		nodes++
		if stopped(done) {
			return fmt.Errorf("solver: induction check stopped: %w", ctx.Err())
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
		gu, solution, below := s.limit(u, f)
		if unsound == nil && solution && !phi(s.spines[u]) {
			unsound = fmt.Errorf("solver: induction rule unsound?! φ fails on smooth solution %s", s.spines[u])
		}
		if s.tree.Len(u) >= p.MaxDepth {
			continue
		}
		first := s.tree.Size()
		n := s.expand(u, gu, below, &q)
		for v := first; v < first+n; v++ {
			if err := p.D.InductionPremise(phi, s.spines[u], s.spines[v]); err != nil {
				return err
			}
		}
	}
	return unsound
}
