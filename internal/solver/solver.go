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
// tree search needs.
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
	// Prune disables the f(v) ⊑ g(u) edge filter when false — only used
	// by the pruning ablation (experiment E21); real searches always
	// prune. With pruning off, every one-step extension is a son and
	// smoothness is re-checked from scratch on candidate solutions.
	Prune bool
	// CollectVisited controls whether Result.Visited is populated.
	// NewProblem turns it on (the compatible default); large
	// service-driven searches turn it off so the result stops pinning
	// every node of the explored tree. All counters (Result.Nodes,
	// Stats.Visited) are maintained either way.
	CollectVisited bool
	// Thm1 enables the Theorem 1 fast path for independent descriptions
	// (supp(f) ∩ supp(g) = ∅, the theorem's hypothesis). For a candidate
	// edge u → u·e with e outside supp(f), f(u·e) = f(u) ⊑ g(u) already
	// holds — every admitted node satisfies f ⊑ g by induction along its
	// admitting edge and monotonicity of g — so the son is admitted with
	// zero evaluations. The admitted tree is identical; only the work
	// changes. NewProblem sets this from desc.Description.Thm1Eligible
	// (independent sides, and a left side whose finite approximation is
	// support-determined); the search additionally verifies the
	// induction base f(⊥) ⊑ g(⊥) before trusting the shortcut (see
	// newSearch).
	Thm1 bool
	// Compiled lowers the description's sides to descvm bytecode for the
	// search's evaluations; the search runs the shared programs through
	// VM sessions of its own. NewProblem sets it:
	// bytecode is the production evaluator. Observably transparent: all
	// counters and every result are byte-identical to interpreted
	// evaluation — the root differential suite enforces this across all
	// shipped specs — so false only selects the interpreter, the
	// differential oracle. Sides that cannot lower (opaque combinators)
	// silently keep the interpreter.
	Compiled bool
	// OnSolution, when non-nil, is invoked for each smooth solution as the
	// search commits it, in canonical BFS order, on the goroutine that
	// called the search. The callback runs on the search's critical path
	// and must not block; buffer and hand off instead. The streaming
	// service endpoint is the intended consumer.
	OnSolution func(trace.Trace)
}

// NewProblem builds a pruned problem with sane defaults.
func NewProblem(d desc.Description, alphabet map[string][]value.Value, maxDepth int) Problem {
	chans := make([]string, 0, len(alphabet))
	for c := range alphabet {
		chans = append(chans, c)
	}
	sort.Strings(chans)
	return Problem{D: d, Channels: chans, Alphabet: alphabet, MaxDepth: maxDepth, Prune: true, CollectVisited: true, Thm1: d.Thm1Eligible(), Compiled: true}
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
	// Visited lists every tree node reached, in BFS order; the root ⊥ is
	// always first. Every communication history of the described process
	// is a visited node (within the bounds). Empty when the problem opts
	// out via CollectVisited = false; Nodes and Stats.Visited still count.
	Visited []trace.Trace
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

// search carries the machinery of one tree exploration: the problem,
// a VM session per side, the stats it counts into, and the interned
// candidate events — one Event per (channel, message) built up front,
// so expansion never re-constructs them. It runs on the goroutine that
// called the search; concurrent searches share only the Problem and the
// cached bytecode.
type search struct {
	p Problem
	// fsess and gsess evaluate the two sides' bytecode when p.Compiled
	// and the side lowers; nil selects the interpreter for that side.
	// They live as long as the search, so a checkpoint's later legs find
	// their VM frames warm.
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
	// thm1 is true when the Theorem 1 fast path is active: the problem
	// requested it (independent supports) and the induction base
	// f(⊥) ⊑ g(⊥) holds. Candidates on channels outside fsupp are then
	// admitted without evaluation (see Problem.Thm1).
	thm1 bool
	// f0 and g0 are f(⊥) and g(⊥) when the induction-base check computed
	// them (nil otherwise): the root's limit check reads them instead of
	// applying the sides again.
	f0, g0 fn.Tuple
	// fanout is the total alphabet size across channels — the exact
	// capacity an expanding node's son list can need.
	fanout int
	fsupp  trace.ChanSet
	// sonBuf is the reusable son-slot buffer for expansions below the
	// depth bound: capacity fanout, so expand never reallocates, and the
	// consumer copies the sons into its queue before the next expand
	// reuses the slots.
	sonBuf []node
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

// newSearch builds the search state and runs the Theorem 1
// induction-base check when the problem asks for the fast path.
func newSearch(p Problem) *search {
	s := &search{p: p, cands: make([]candSet, 0, len(p.Channels))}
	if p.Compiled {
		if prog, ok := descvm.Compile(p.D.F); ok {
			s.fsess = prog.NewSession()
		}
		if prog, ok := descvm.Compile(p.D.G); ok {
			s.gsess = prog.NewSession()
		}
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
	if p.Thm1 && p.Prune && !p.D.F.Omega {
		// Induction base for the fast path's invariant. If it fails, the
		// root has no sons at all (f(⊥) ⊑ f(v) ⊑ g(⊥) for any admitted
		// v), so falling back to the full edge check costs nothing. The
		// F.Omega re-check guards callers that set Thm1 by hand on an
		// ω-approximation left side, for which auto-admit is unsound.
		// The two applications are not counted here, and their time is
		// dropped: the search that starts at ⊥ counts them (countBase),
		// and a decoded checkpoint, which runs this check again, carries
		// them in its result already.
		var untimed int64
		s.f0 = apply(p.D.F, s.fsess, root, &untimed)
		s.g0 = apply(p.D.G, s.gsess, root, &untimed)
		s.thm1 = s.f0.Leq(s.g0)
		s.fsupp = p.D.F.Support
		if s.thm1 {
			for i := range s.cands {
				s.cands[i].auto = !s.fsupp.Has(s.cands[i].ch)
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

// apply applies one side to t: through sess when the side lowered to
// bytecode, otherwise through the interpreter, whose wall-clock time it
// adds to nanos (see EvalStats.FNanos).
func apply(side fn.TraceFn, sess *descvm.Session, t trace.Trace, nanos *int64) fn.Tuple {
	if sess != nil {
		return sess.Eval(t)
	}
	start := time.Now()
	v := side.Apply(t)
	*nanos += time.Since(start).Nanoseconds()
	return v
}

// f applies the description's left side to t, counting the application.
func (s *search) f(t trace.Trace) fn.Tuple {
	s.st.Eval.FApplies++
	return apply(s.p.D.F, s.fsess, t, &s.st.Eval.FNanos)
}

// g is f for the right side.
func (s *search) g(t trace.Trace) fn.Tuple {
	s.st.Eval.GApplies++
	return apply(s.p.D.G, s.gsess, t, &s.st.Eval.GNanos)
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
	s.run(ctx, &res, []node{s.rootNode()}, cp)
	if cp != nil {
		cp.done = res
	}
	return res, cp
}

// run is the one BFS core, shared by Enumerate and the checkpoint
// capture/resume paths. It folds classifications into res, which may
// arrive pre-loaded with an already-classified prefix (a resumed
// search); queue seeds the work list in canonical BFS order.
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
// resume frontier, and a truncated run records its unclassified queue
// remainder as cp.pending. Classification of every node is identical in
// both modes — a bound node is Frontier iff it has at least one son —
// only the bound-level edge accounting differs (expand visits every
// candidate where hasSon stops at the first witness, and never counts
// FrontierWitnesses). See Checkpoint for how that difference is reported.
func (s *search) run(ctx context.Context, res *Result, queue []node, cp *Checkpoint) {
	p := s.p
	st := &res.Stats
	s.st = st
	begin := time.Now()
	st.Thm1FastPath = s.thm1
	for len(queue) > 0 {
		canceled := ctx.Err() != nil
		if canceled || (p.MaxNodes > 0 && res.Nodes >= p.MaxNodes) {
			// The first node past the stopping point is visited but
			// skipped: counted in Nodes and Visited, never classified.
			res.Truncated, res.Canceled = true, canceled
			res.Nodes++
			if p.CollectVisited {
				res.Visited = append(res.Visited, queue[0].t)
			}
			st.Visited++
			st.Skipped++
			if cp != nil {
				cp.pending = append([]node(nil), queue...)
			}
			break
		}
		queue = append(queue[1:], s.step(res, cp, queue[0])...)
	}
	s.st = nil
	st.CompiledEval = s.fsess != nil && s.gsess != nil
	st.Elapsed += time.Since(begin)
}

// step visits one node and commits it. The visit decides the limit
// condition and whether the node has a son — expanding it below the
// depth bound (into sonBuf) or, in capture mode, at the bound (into
// fresh slots the resume frontier retains), and probing with hasSon
// otherwise; g(cur) goes from the limit check to the expansion. The
// commit folds the node into the result in canonical order — node and
// level counts, solution (streamed through OnSolution), role, and in
// capture mode the retained frontier — and step returns the sons the
// queue must take (none at the depth bound).
func (s *search) step(res *Result, cp *Checkpoint, cur node) []node {
	u := cur.t
	gu, solution := s.classify(cur)
	var sons []node
	var hasSon bool
	switch {
	case u.Len() < s.p.MaxDepth:
		sons = s.expand(u, gu, s.sonBuf[:0])
	case cp != nil:
		sons = s.expand(u, gu, nil)
	default:
		hasSon = s.hasSon(u, gu)
	}
	hasSon = hasSon || len(sons) > 0

	st := s.st
	res.Nodes++
	if s.p.CollectVisited {
		res.Visited = append(res.Visited, u)
	}
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
// which the node's expansion reads again. f comes from n when its
// parent's edge check carried it, and the root takes both sides from
// the induction-base check when that ran; each such read counts as a
// hit.
func (s *search) limit(n node) (fn.Tuple, bool) {
	fu := n.f
	if fu != nil {
		s.st.Eval.FHits++
	} else {
		fu = s.f(n.t)
	}
	var gu fn.Tuple
	if n.t.Len() == 0 && s.g0 != nil {
		s.st.Eval.GHits++
		gu = s.g0
	} else {
		gu = s.g(n.t)
	}
	return gu, fu.Equal(gu)
}

// classify decides the limit condition at a node, with the full
// smoothness re-check the unpruned ablation requires, and returns g of
// the node for its expansion.
func (s *search) classify(n node) (fn.Tuple, bool) {
	s.st.LimitChecks++
	gu, isSolution := s.limit(n)
	if isSolution && !s.p.Prune {
		// With pruning, every node is reachable only through smooth
		// edges, so the limit condition alone decides; without it,
		// re-check the full smoothness condition.
		isSolution = s.p.D.IsSmoothFinite(n.t) == nil
	}
	return gu, isSolution
}

// expand generates the smooth sons of u, given gu = g(u) from u's limit
// check: g is never re-applied here, and the check's reuse of it is
// counted once per node — not once per candidate, and not at all when
// the Theorem 1 fast path admits every candidate. Each admitted son
// carries the f its edge check computed. Each rejected candidate is a
// whole subtree of the unpruned tree cut before any of it is expanded,
// and each son is an O(1) persistent extension sharing u's spine.
//
// dst, when non-nil, supplies the son slots (the search's reusable
// buffer); callers that retain the returned slice past the next expand —
// a capture's resume frontier — must pass nil.
func (s *search) expand(u trace.Trace, gu fn.Tuple, dst []node) []node {
	st := s.st
	sons := dst
	lvl := st.level(u.Len() + 1)
	guRead := false
	for ci := range s.cands {
		// Fast path (Theorem 1): a channel outside supp(f) means
		// f(u·e) = f(u), and f(u) ⊑ g(u) holds at every admitted node, so
		// the edge condition f(v) ⊑ g(u) is guaranteed — admit without
		// evaluating.
		c := &s.cands[ci]
		auto := c.auto
		for i, e := range c.es {
			v := node{t: u.AppendPrehashed(e, c.hs[i])}
			st.EdgesChecked++
			if s.p.Prune {
				if auto {
					st.Thm1AutoEdges++
				} else {
					if !guRead {
						st.Eval.GHits++
						guRead = true
					}
					if v.f = s.f(v.t); !v.f.Leq(gu) {
						st.SubtreesPruned++
						lvl.Pruned++
						continue
					}
				}
			}
			st.EdgesKept++
			if sons == nil {
				sons = make([]node, 0, s.fanout)
			}
			sons = append(sons, v)
		}
	}
	return sons
}

// hasSon reports whether a depth-bound node has a smooth son, stopping at
// the first witness; gu is g(u) from the limit check, as for expand.
// Failed candidates are pruned subtrees like expand's; the witness is
// counted separately since it is never enqueued. A Theorem-1
// auto-admitted candidate is an immediate witness.
func (s *search) hasSon(u trace.Trace, gu fn.Tuple) bool {
	st := s.st
	lvl := st.level(u.Len() + 1)
	guRead := false
	for ci := range s.cands {
		c := &s.cands[ci]
		auto := c.auto
		for i, e := range c.es {
			v := u.AppendPrehashed(e, c.hs[i])
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
			if s.f(v).Leq(gu) {
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
// renderings (Trace.String), not the (hash, length) trace keys.
func (r Result) SolutionKeys() []string {
	keys := make([]string, len(r.Solutions))
	for i, s := range r.Solutions {
		keys[i] = s.String()
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
	queue := []node{s.rootNode()}
	nodes := 0
	var unsound error
	for len(queue) > 0 {
		n := queue[0]
		u := n.t
		queue = queue[1:]
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
		gu, solution := s.classify(n)
		if unsound == nil && solution && !phi(u) {
			unsound = fmt.Errorf("solver: induction rule unsound?! φ fails on smooth solution %s", u)
		}
		if u.Len() >= p.MaxDepth {
			continue
		}
		for _, v := range s.expand(u, gu, s.sonBuf[:0]) {
			if err := p.D.InductionPremise(phi, u, v.t); err != nil {
				return err
			}
			queue = append(queue, v)
		}
	}
	return unsound
}
