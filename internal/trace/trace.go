// Package trace implements communication traces: sequences of
// (channel, message) pairs, as defined in Section 3.1 of the paper.
//
// A trace records the sends of a computation — "a pair (c, m) is included
// in a history if m is sent along c; receipt of a data item is not shown".
// Traces under prefix ordering form a cpo (Fact F1); projection onto a
// channel set is continuous (Fact F3); and the pre relation — u pre v in t
// iff u, v are finite prefixes of t with |v| = |u|+1 — drives the
// smoothness condition of descriptions (package desc).
//
// Representation: a Trace is a persistent, prefix-sharing structure — an
// immutable parent-pointer spine with one node per event. Append is O(1)
// and shares the whole parent spine; Take returns an existing spine node
// without copying; Prefixes and PrePairs walk the spine. Traces that
// share almost all of their prefix — the Section 3.3 tree's nodes — so
// take O(N) storage, not O(N·depth). Each node also carries an incrementally
// maintained 64-bit structural hash, so Key — the (hash, length) map
// key for traces — is O(1). See DESIGN.md ("Persistent
// traces and the trace cpo") for why sharing is sound.
//
// The search itself keeps no Trace per node: it holds its tree as a
// Tree, fixed-size records of parent and event indices, and builds a
// Trace only for a node a caller reads (tree.go).
package trace

import (
	"fmt"
	"sort"
	"sync"

	"smoothproc/internal/seq"
	"smoothproc/internal/value"
)

// Event is one communication: message Val sent along channel Ch.
type Event struct {
	Ch  string
	Val value.Value
}

// E is shorthand for constructing an Event.
func E(ch string, v value.Value) Event { return Event{Ch: ch, Val: v} }

// Equal reports equality of events.
func (e Event) Equal(f Event) bool { return e.Ch == f.Ch && e.Val.Equal(f.Val) }

// String renders the event as (c,m), matching the paper's notation.
func (e Event) String() string { return "(" + e.Ch + "," + e.Val.String() + ")" }

// Hash64 returns the event's structural hash: equal events hash equal.
func (e Event) Hash64() uint64 {
	return value.HashString(e.Val.Hash64(), e.Ch)
}

// node is one spine cell: the trace that ends with ev and continues, via
// parent, with the length-(n-1) prefix. Nodes are immutable and shared
// freely: every extension of a trace points at the same parent spine.
type node struct {
	parent *node
	ev     Event
	n      int    // length of the trace ending at this node (≥ 1)
	hash   uint64 // structural hash of that whole prefix
}

// emptyHash seeds the rolling hash at ⊥.
const emptyHash uint64 = 0xcbf29ce484222325

// Trace is a finite communication history. The zero Trace is ⊥ (the
// empty trace). Traces are immutable persistent values: extending one
// never copies or invalidates another, so they may be shared freely
// across solver nodes, checkpoints and histories. Compare traces with
// Equal/Leq: the leading zero-size field makes == on a Trace, and a map
// keyed by one, a compile error, since == would compare spine identity,
// not events. Key a map by Trace.Key() or String() instead.
type Trace struct {
	_   [0]func()
	end *node // nil for ⊥
}

// Empty is the bottom element ⊥ of the trace cpo.
var Empty = Trace{}

// Of builds a trace from events.
func Of(events ...Event) Trace { return Empty.append(events) }

// FromEvents builds a trace from a slice of events. The slice is read,
// never retained.
func FromEvents(events []Event) Trace { return Empty.append(events) }

func (t Trace) append(events []Event) Trace {
	for _, e := range events {
		t = t.Append(e)
	}
	return t
}

// Len returns the number of events.
func (t Trace) Len() int {
	if t.end == nil {
		return 0
	}
	return t.end.n
}

// IsEmpty reports whether t is ⊥.
func (t Trace) IsEmpty() bool { return t.end == nil }

// at returns the spine node ending the length-n prefix (n ≥ 1).
func (t Trace) at(n int) *node {
	c := t.end
	for c.n > n {
		c = c.parent
	}
	return c
}

// At returns the i-th event (0-based). Walking the spine makes this
// O(len-i); iterate with Events when visiting many positions.
func (t Trace) At(i int) Event { return t.at(i + 1).ev }

// Last returns the final event of a nonempty trace.
func (t Trace) Last() Event { return t.end.ev }

// Events returns the events of t in order, as a fresh slice the caller
// owns. This is the migration path for code that used to range over the
// old slice representation.
func (t Trace) Events() []Event {
	out := make([]Event, t.Len())
	for c := t.end; c != nil; c = c.parent {
		out[c.n-1] = c.ev
	}
	return out
}

// spineEqual reports whether the traces ending at a and b (of equal
// length) are event-wise equal. Shared structure short-circuits: the walk
// stops at the first common spine node, so comparing a trace against one
// of its own extensions' prefixes is O(1).
func spineEqual(a, b *node) bool {
	for a != b {
		if !a.ev.Equal(b.ev) {
			return false
		}
		a, b = a.parent, b.parent
	}
	return true
}

// Equal reports event-wise equality.
func (t Trace) Equal(u Trace) bool {
	return t.Len() == u.Len() && spineEqual(t.end, u.end)
}

// Leq reports the prefix order t ⊑ u (Fact F1's ordering).
func (t Trace) Leq(u Trace) bool {
	if t.Len() > u.Len() {
		return false
	}
	if t.end == nil {
		return true
	}
	return spineEqual(t.end, u.at(t.end.n))
}

// Compatible reports whether t and u are comparable under ⊑.
func (t Trace) Compatible(u Trace) bool { return t.Leq(u) || u.Leq(t) }

// Take returns the prefix of length at most n — an existing spine node,
// shared with t, found in O(len-n) without copying.
func (t Trace) Take(n int) Trace {
	if n <= 0 || t.end == nil {
		return Empty
	}
	if n >= t.end.n {
		return t
	}
	return Trace{end: t.at(n)}
}

// Append returns t extended by one event: O(1), sharing t's spine.
func (t Trace) Append(e Event) Trace {
	c := t.cell(e, e.Hash64())
	return Trace{end: &c}
}

// cell returns the spine node that extends t by e, whose Hash64 is eh.
func (t Trace) cell(e Event, eh uint64) node {
	h, n := emptyHash, 1
	if t.end != nil {
		h, n = t.end.hash, t.end.n+1
	}
	return node{parent: t.end, ev: e, n: n, hash: value.HashMix(h, eh)}
}

// Concat returns t followed by u.
func (t Trace) Concat(u Trace) Trace { return t.append(u.Events()) }

// Prefixes returns all finite prefixes of t in increasing length,
// including ⊥ and t itself — the chain of Fact F2, whose lub is t. Every
// returned prefix shares t's spine.
func (t Trace) Prefixes() []Trace {
	out := make([]Trace, t.Len()+1)
	for c := t.end; c != nil; c = c.parent {
		out[c.n] = Trace{end: c}
	}
	out[0] = Empty
	return out
}

// PrePairs calls visit(u, v) for every pair with u pre v in t, i.e. for
// each consecutive pair of finite prefixes. Returning false from visit
// stops the iteration early. The prefixes share t's spine.
func (t Trace) PrePairs(visit func(u, v Trace) bool) {
	for _, v := range t.Prefixes()[1:] {
		if !visit(Trace{end: v.end.parent}, v) {
			return
		}
	}
}

// Pre reports whether u pre v in t holds.
func Pre(u, v, t Trace) bool {
	return v.Len() == u.Len()+1 && u.Leq(t) && v.Leq(t) && u.Leq(v)
}

// Project returns the projection t_L: the subsequence of events whose
// channel is in L (Section 3.1.2). Projection is continuous (Fact F3);
// the package tests check this on growing prefix chains.
func (t Trace) Project(l ChanSet) Trace {
	kept := make([]Event, 0, t.Len())
	for c := t.end; c != nil; c = c.parent {
		if l.Has(c.ev.Ch) {
			kept = append(kept, c.ev)
		}
	}
	reverse(kept)
	return FromEvents(kept)
}

func reverse(es []Event) {
	for i, j := 0, len(es)-1; i < j; i, j = i+1, j-1 {
		es[i], es[j] = es[j], es[i]
	}
}

// Channel returns the sequence of messages sent along channel c in t —
// the paper's convention that "a channel name denotes the function that
// maps a trace to the sequence associated with c in the trace" (Section
// 4). Continuous.
//
// A first walk of the spine counts c's events, so Channel allocates
// nothing when c does not occur (the result is an empty, non-nil Seq)
// and one slice of exact size otherwise.
func (t Trace) Channel(c string) seq.Seq {
	k := 0
	for n := t.end; n != nil; n = n.parent {
		if n.ev.Ch == c {
			k++
		}
	}
	out := make(seq.Seq, k)
	for n := t.end; k > 0; n = n.parent {
		if n.ev.Ch == c {
			k--
			out[k] = n.ev.Val
		}
	}
	return out
}

// Channels returns the sorted set of channel names occurring in t.
func (t Trace) Channels() []string {
	set := map[string]bool{}
	for c := t.end; c != nil; c = c.parent {
		set[c.ev.Ch] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// AppendKey appends the event rendering (c,m) to b and returns the
// extended slice — one event's worth of Trace.AppendKey.
func (e Event) AppendKey(b []byte) []byte {
	b = append(b, '(')
	b = append(b, e.Ch...)
	b = append(b, ',')
	b = e.Val.AppendTo(b)
	return append(b, ')')
}

// AppendKey appends the bracketless event rendering of t — the body of
// String between ⟨ and ⟩ — to b and returns the extended slice.
func (t Trace) AppendKey(b []byte) []byte { return appendSpine(b, t.end) }

// appendSpine renders the events ending at c, oldest first, recursing
// to the root instead of copying the spine out.
func appendSpine(b []byte, c *node) []byte {
	if c == nil {
		return b
	}
	return c.ev.AppendKey(appendSpine(b, c.parent))
}

// AppendString appends String's rendering of t to b and returns the
// extended slice, so a caller rendering many traces reuses one buffer.
func (t Trace) AppendString(b []byte) []byte {
	b = append(b, "⟨"...)
	return append(t.AppendKey(b), "⟩"...)
}

// String renders the trace in the paper's notation, e.g.
// ⟨(b,0)(c,1)(d,0)⟩; ⊥ renders as ⟨⟩. String is the canonical rendering:
// distinct traces render distinctly, so it doubles as the human-readable
// deduplication key (solution sets, golden files).
func (t Trace) String() string {
	return string(t.AppendString(make([]byte, 0, 6+12*t.Len())))
}

// Key is a compact map key for a trace: the incrementally maintained
// structural hash mixed with the length into one word. Building one is
// O(1), and a single-word key takes the runtime map's fast uint64 path —
// measurably cheaper than hashing a two-field struct in map-bound code.
// Two equal traces always have equal Keys; distinct traces collide only
// on a 64-bit hash collision, so every consumer (the session delta's
// dedup, caches) must treat buckets as candidate sets and confirm with
// Trace.Equal — the equality fallback. See DESIGN.md on
// hash-key transparency.
type Key uint64

// Key returns the map key of t in O(1).
func (t Trace) Key() Key {
	if t.end == nil {
		return Key(value.HashMix(emptyHash, 0))
	}
	return Key(value.HashMix(t.end.hash, uint64(t.end.n)))
}

// WithKeyHash returns a trace with the same events as t but whose Key
// hash is forced to h. It exists solely so tests can manufacture Key
// collisions between distinct traces and exercise the equality-fallback
// paths; never use it outside tests.
func WithKeyHash(t Trace, h uint64) Trace {
	if t.end == nil {
		panic("trace: WithKeyHash on ⊥")
	}
	forged := *t.end
	forged.hash = h
	return Trace{end: &forged}
}

// ChanSet is a set of channel names.
type ChanSet map[string]bool

// NewChanSet builds a set from names.
func NewChanSet(names ...string) ChanSet {
	s := make(ChanSet, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

// Has reports membership.
func (s ChanSet) Has(c string) bool { return s[c] }

// Names returns the sorted member names.
func (s ChanSet) Names() []string {
	out := make([]string, 0, len(s))
	for c := range s {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Union returns the union of the sets — the incident channels of a
// network are the union of its components' incident channels.
func (s ChanSet) Union(t ChanSet) ChanSet {
	out := make(ChanSet, len(s)+len(t))
	for c := range s {
		out[c] = true
	}
	for c := range t {
		out[c] = true
	}
	return out
}

// Intersects reports whether the sets share a member. Theorem 1's
// independence hypothesis is the negation of this for the supports of the
// two sides of a description.
func (s ChanSet) Intersects(t ChanSet) bool {
	for c := range s {
		if t[c] {
			return true
		}
	}
	return false
}

// Without returns s minus the given names — used by variable elimination
// (Section 7), where c is "the subset of channels excluding b".
func (s ChanSet) Without(names ...string) ChanSet {
	out := make(ChanSet, len(s))
	for c := range s {
		out[c] = true
	}
	for _, n := range names {
		delete(out, n)
	}
	return out
}

// CheckF4 verifies Fact F4 on concrete u, v, t, l: if u pre v in t then
// either the projections on l are equal or they are consecutive prefixes
// of t's projection. It returns an error naming the failed clause; a
// failure indicates broken projection code, as F4 is a theorem.
func CheckF4(u, v, t Trace, l ChanSet) error {
	if !Pre(u, v, t) {
		return fmt.Errorf("trace: hypothesis u pre v in t fails for u=%s v=%s", u, v)
	}
	ui, vi, ti := u.Project(l), v.Project(l), t.Project(l)
	if ui.Equal(vi) || Pre(ui, vi, ti) {
		return nil
	}
	return fmt.Errorf("trace: F4 fails: u_i=%s v_i=%s", ui, vi)
}

// F5Witness realises Fact F5: given x pre y in the projection of t on l,
// it returns u, v with u pre v in t, u's projection x and v's projection
// y. It follows the paper's proof: v is the shortest prefix of t whose
// projection is y.
func F5Witness(x, y, t Trace, l ChanSet) (u, v Trace, err error) {
	ti := t.Project(l)
	if !Pre(x, y, ti) {
		return Empty, Empty, fmt.Errorf("trace: hypothesis x pre y in t_i fails for x=%s y=%s", x, y)
	}
	for n := 1; n <= t.Len(); n++ {
		cand := t.Take(n)
		if cand.Project(l).Equal(y) {
			u, v = t.Take(n-1), cand
			if !u.Project(l).Equal(x) {
				return Empty, Empty, fmt.Errorf("trace: F5 construction failed: u_i=%s, want %s", u.Project(l), x)
			}
			return u, v, nil
		}
	}
	return Empty, Empty, fmt.Errorf("trace: no prefix of t projects to %s", y)
}

// Gen generates the finite prefixes of a possibly-infinite trace: Prefix
// must be monotone in n (Prefix(m) ⊑ Prefix(n) for m ≤ n) and return the
// length-n prefix, or the whole trace if it is shorter than n. Gens are
// this repository's finite-approximation stand-in for the paper's
// ω-traces (see DESIGN.md).
type Gen struct {
	Name   string
	Prefix func(n int) Trace
}

// FiniteGen wraps a finite trace as a generator.
func FiniteGen(t Trace) Gen {
	return Gen{Name: t.String(), Prefix: func(n int) Trace { return t.Take(n) }}
}

// CycleGen generates period repeated forever — e.g. the Ticks trace
// (b,T)^ω of Section 4.2 and the 0^ω limit of Section 2.1. Successive
// prefixes share one growing spine, so probing a generator at increasing
// depths costs O(depth) total, not O(depth²).
func CycleGen(name string, period Trace) Gen {
	evs := period.Events()
	var mu sync.Mutex
	grown := Empty
	return Gen{Name: name, Prefix: func(n int) Trace {
		if len(evs) == 0 || n <= 0 {
			return Empty
		}
		mu.Lock()
		defer mu.Unlock()
		for grown.Len() < n {
			grown = grown.Append(evs[grown.Len()%len(evs)])
		}
		return grown.Take(n)
	}}
}

// FuncGen generates the trace whose i-th event (0-based) is at(i). Like
// CycleGen it memoizes one growing spine across calls; at must be pure.
func FuncGen(name string, at func(i int) Event) Gen {
	var mu sync.Mutex
	grown := Empty
	return Gen{Name: name, Prefix: func(n int) Trace {
		mu.Lock()
		defer mu.Unlock()
		for grown.Len() < n {
			grown = grown.Append(at(grown.Len()))
		}
		return grown.Take(n)
	}}
}

// BlockGen generates the infinite concatenation block(0), block(1), ... —
// used for Section 2.3's solutions x (blocks B_i), y (reversed blocks)
// and z (blocks C_i). The generated spine is memoized across calls;
// block must be pure.
func BlockGen(name string, block func(i int) Trace) Gen {
	var mu sync.Mutex
	grown := Empty
	next := 0
	return Gen{Name: name, Prefix: func(n int) Trace {
		mu.Lock()
		defer mu.Unlock()
		for grown.Len() < n {
			b := block(next)
			next++
			grown = grown.Concat(b)
		}
		return grown.Take(n)
	}}
}

// CheckGenMonotone verifies the generator's prefix-chain property up to
// depth: Prefix(n) ⊑ Prefix(n+1) and |Prefix(n)| ≤ n.
func CheckGenMonotone(g Gen, depth int) error {
	prev := g.Prefix(0)
	if !prev.IsEmpty() {
		return fmt.Errorf("trace: gen %s: Prefix(0) not empty", g.Name)
	}
	for n := 1; n <= depth; n++ {
		cur := g.Prefix(n)
		if cur.Len() > n {
			return fmt.Errorf("trace: gen %s: |Prefix(%d)| = %d > %d", g.Name, n, cur.Len(), n)
		}
		if !prev.Leq(cur) {
			return fmt.Errorf("trace: gen %s: Prefix(%d) ⋢ Prefix(%d)", g.Name, n-1, n)
		}
		prev = cur
	}
	return nil
}
