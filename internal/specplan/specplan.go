// Package specplan statically derives the shape and cost of a Section
// 3.3 tree search from a description system, without running the
// search. The paper makes this possible: the tree's branching at an
// admitted node u is governed by the smoothness condition f(u·e) ⊑ g(u)
// per candidate event e, and for the combinator vocabulary the *change*
// f(u·e) − f(u) is statically classifiable per (channel, message) pair.
// An abstract interpretation of that delta over fn.TraceIR yields, per
// channel, a sound upper bound on the admitted extensions of any tree
// node — hence per-depth level-width bounds and a sound upper bound
// Nodes(d) on the whole tree. Theorem 1's independence structure gives
// the converse: events on channels outside supp(f) are always admitted,
// so the auto-admitted subtree is a sound *lower* bound, which is what
// admission control needs (a search whose guaranteed floor exceeds the
// node budget cannot finish and should be rejected up front).
//
// The delta domain, per width-1 output component and candidate event:
//
//	same       the component's output is provably unchanged — the
//	           smoothness unit holds at every admitted node (Lemma 2
//	           invariant f(u) ⊑ g(u) plus monotonicity), so the
//	           component never blocks the edge;
//	pinned(V)  the output grows by exactly one element, drawn from V;
//	           admission forces that element to equal g's next element,
//	           so among singleton-pinned messages at most max-multiplicity
//	           many can be admitted at any one node;
//	maybe(V)   the output grows by zero or one element (filters,
//	           takewhiles); counted as admissible;
//	unknown    an opaque function saw its argument change; counted as
//	           admissible.
//
// Everything here is an over-approximation of the *pruned* search — the
// semantics Enumerate implements; the unpruned tree of experiment E21,
// every extension up to the depth bound, is deliberately out of scope. The root plan-soundness
// suite holds Plan.Nodes(d) ≥ the solver's actual node count (and
// MinNodes(d) ≤ it) on every shipped spec.
package specplan

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"smoothproc/internal/desc"
	"smoothproc/internal/descvm"
	"smoothproc/internal/fn"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// Sat is the saturation ceiling of the node arithmetic: bounds that
// overflow uint64 park here and render as "inf".
const Sat = math.MaxUint64

// Interval is a per-level branching interval [Lo, Hi]: at least Lo and
// at most Hi extensions on the channel are admitted at any tree node
// expanding into that level.
type Interval struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// ChannelPlan is the static branching analysis of one channel.
type ChannelPlan struct {
	Channel string `json:"channel"`
	// Alphabet is the candidate message count — the naive branching.
	Alphabet int `json:"alphabet"`
	// Bound is the sound per-node admission bound: at most this many
	// extensions on the channel are admitted at any tree node.
	Bound int `json:"bound"`
	// Auto reports Theorem 1 auto-admission: the channel is outside
	// supp(f), so (when the fast path is active) every candidate is
	// admitted without evaluation — branching is exactly Alphabet.
	Auto bool `json:"auto"`
	// Dead reports that no event on the channel is ever admitted: the
	// channel's history is pinned at ⊥ by its description (divergent
	// equations, self-definitions, empty right sides).
	Dead bool `json:"dead"`
	// Cap bounds the events on this channel along any tree path (-1:
	// unbounded). Derived from constant-length right sides.
	Cap int `json:"cap"`
	// Branch holds the per-depth intervals for levels 1..Depth.
	Branch []Interval `json:"branch"`
}

// Group is one component of the Theorem 1 channel-independence
// partition: the channels transitively linked by sharing a description,
// and the descriptions living on them. Distinct groups never constrain
// each other: the search tree over them is an interleaving of the
// groups' own trees.
type Group struct {
	Channels []string `json:"channels"`
	Descs    []string `json:"descs,omitempty"`
}

// Plan is the machine-readable static analysis of one spec's search.
type Plan struct {
	// Depth is the analysis depth: Branch tables and the headline
	// NodesBound/MinNodesBound are reported at this depth. Nodes and
	// MinNodes answer any depth.
	Depth int `json:"depth"`
	// Fanout is the total candidate events per node (the naive branching).
	Fanout int `json:"fanout"`
	// BranchBound is the sound admitted-sons bound B = Σ_c Bound(c).
	BranchBound int `json:"branch_bound"`
	// AutoBranch is the Theorem 1 floor A = Σ_{c auto} Alphabet(c): when
	// the fast path is active every node within depth has at least A sons.
	AutoBranch int `json:"auto_branch"`
	// BaseHolds is the statically evaluated induction base f(⊥) ⊑ g(⊥).
	// When it fails, the tree is exactly {⊥}.
	BaseHolds bool `json:"base_holds"`
	// Thm1FastPath mirrors the solver's fast-path activation: combined
	// supports disjoint, non-ω left side, and the base holds.
	Thm1FastPath bool `json:"thm1_fast_path"`
	// OmegaDescs names the descriptions whose sides contain ω-constant
	// approximations — the components whose outputs grow with raw trace
	// length (divergence-style unbounded behavior is reachable there).
	OmegaDescs []string `json:"omega_descs,omitempty"`
	// DeadChannels lists channels no admitted node ever extends.
	DeadChannels []string `json:"dead_channels,omitempty"`
	// MaxPathLen bounds tree depth when every live channel carries a
	// constant-length cap (-1: unbounded). Levels beyond it are empty.
	MaxPathLen int `json:"max_path_len"`
	// Channels holds the per-channel analyses, sorted by name.
	Channels []ChannelPlan `json:"channels"`
	// Partition is the channel-independence partition; PartitionWidth is
	// its group count, which the admission 422's estimate reports.
	Partition      []Group `json:"partition"`
	PartitionWidth int     `json:"partition_width"`
	// NodesBound and MinNodesBound are Nodes(Depth) and MinNodes(Depth).
	NodesBound    uint64 `json:"nodes_bound"`
	MinNodesBound uint64 `json:"min_nodes_bound"`
	// Shareability estimates the fraction of candidate evaluations the
	// search avoids by carrying f and g down tree edges instead of
	// re-applying them — an estimate from prefix structure, not a sound
	// bound.
	Shareability float64 `json:"shareability"`
	// LoweredSides counts description sides that lowered to descvm
	// bytecode (and passed the static verifier); VerifyError reports a
	// verifier rejection, which indicates a compiler bug, never a spec
	// property.
	LoweredSides int    `json:"lowered_sides"`
	VerifyError  string `json:"verify_error,omitempty"`
}

// Analyze derives the plan for a description system over the given
// candidate alphabet. depth controls the reported tables and headline
// bounds; the Nodes/MinNodes methods answer any depth. The analysis
// evaluates the sides only at the empty trace (the induction base) —
// it never runs the search.
func Analyze(sys desc.System, alphabet map[string][]value.Value, depth int) *Plan {
	return AnalyzeCombined(sys, sys.Combined(), alphabet, depth)
}

// AnalyzeCombined is Analyze for a caller that holds the system's
// combined description already, sys.Combined() or one built by it —
// a program's memoized Problem().D — which the plan then reads instead
// of building its own.
func AnalyzeCombined(sys desc.System, combined desc.Description, alphabet map[string][]value.Value, depth int) *Plan {
	if depth < 0 {
		depth = 0
	}
	p := &Plan{Depth: depth, MaxPathLen: -1}
	p.BaseHolds = combined.F.Apply(trace.Empty).Leq(combined.G.Apply(trace.Empty))
	p.Thm1FastPath = combined.Thm1Eligible() && p.BaseHolds

	chans := make([]string, 0, len(alphabet))
	for c := range alphabet {
		chans = append(chans, c)
	}
	sort.Strings(chans)

	comps := components(sys, &p.LoweredSides, &p.VerifyError)
	for _, d := range sys.Descs {
		if d.F.Omega || d.G.Omega {
			p.OmegaDescs = append(p.OmegaDescs, d.Name)
		}
	}

	capped := true
	for _, c := range chans {
		alpha := alphabet[c]
		cp := ChannelPlan{
			Channel:  c,
			Alphabet: len(alpha),
			Bound:    len(alpha),
			Auto:     p.Thm1FastPath && !combined.F.Support.Has(c),
			Cap:      -1,
		}
		for _, comp := range comps {
			if b := comp.admitBound(c, alpha); b < cp.Bound {
				cp.Bound = b
			}
			if capLen, ok := comp.eventCap(c); ok && (cp.Cap < 0 || capLen < cp.Cap) {
				cp.Cap = capLen
			}
		}
		if cp.Cap == 0 {
			cp.Bound = 0
		}
		cp.Dead = cp.Bound == 0
		if cp.Dead {
			cp.Cap = 0
			p.DeadChannels = append(p.DeadChannels, c)
		} else if cp.Cap < 0 {
			capped = false
		}
		p.Fanout += cp.Alphabet
		p.BranchBound += cp.Bound
		if cp.Auto {
			p.AutoBranch += cp.Alphabet
		}
		p.Channels = append(p.Channels, cp)
	}
	if capped {
		p.MaxPathLen = 0
		for _, cp := range p.Channels {
			p.MaxPathLen += cp.Cap
		}
	}

	for i := range p.Channels {
		cp := &p.Channels[i]
		cp.Branch = make([]Interval, depth)
		for lvl := 1; lvl <= depth; lvl++ {
			iv := Interval{Hi: cp.Bound}
			if p.MaxPathLen >= 0 && lvl > p.MaxPathLen {
				iv.Hi = 0
			}
			if cp.Auto && iv.Hi > 0 {
				iv.Lo = cp.Alphabet
			}
			if iv.Lo > iv.Hi {
				// The caps proved the auto channel saturates before this
				// level; the floor no longer applies there.
				iv.Lo = iv.Hi
			}
			cp.Branch[lvl-1] = iv
		}
	}

	p.Partition = partition(sys, chans)
	p.PartitionWidth = len(p.Partition)
	p.NodesBound = p.Nodes(depth)
	p.MinNodesBound = p.MinNodes(depth)
	p.Shareability = p.shareability(depth)
	return p
}

// Nodes returns a sound upper bound on the number of tree nodes the
// pruned search visits to depth d (inclusive), saturating at Sat. Level
// widths obey W(0)=1, W(i+1) ≤ W(i)·B, cut to zero beyond the proved
// maximum path length; a failed induction base pins the tree at {⊥}.
func (p *Plan) Nodes(d int) uint64 {
	if !p.BaseHolds {
		return 1
	}
	if p.MaxPathLen >= 0 && d > p.MaxPathLen {
		d = p.MaxPathLen
	}
	return geomSum(uint64(p.BranchBound), d)
}

// MinNodes returns a sound lower bound on the nodes the search visits
// to depth d when it is not truncated: under the Theorem 1 fast path
// every node has at least AutoBranch auto-admitted sons, so the full
// AutoBranch-ary tree is visited. Without the fast path the floor is
// the root alone. A solve whose MinNodes exceeds its node budget is
// guaranteed to truncate — the admission-control signal.
func (p *Plan) MinNodes(d int) uint64 {
	if !p.Thm1FastPath {
		return 1
	}
	return geomSum(uint64(p.AutoBranch), d)
}

// geomSum returns Σ_{i=0..d} b^i with saturating arithmetic.
func geomSum(b uint64, d int) uint64 {
	total, width := uint64(0), uint64(1)
	for i := 0; i <= d; i++ {
		total = addSat(total, width)
		width = mulSat(width, b)
		if width == 0 {
			break
		}
	}
	return total
}

// shareability estimates the fraction of side evaluations the search
// avoids at depth d by carrying values down tree edges. Naively, every
// candidate edge evaluates f at the son and g at the parent (2E for E
// candidate edges); carried, each son evaluates f once (E) and each
// node evaluates g once (N). The estimate is 1 − (E+N)/2E.
func (p *Plan) shareability(d int) float64 {
	if !p.BaseHolds {
		return 0
	}
	levels := d
	if p.MaxPathLen >= 0 && levels > p.MaxPathLen {
		levels = p.MaxPathLen
	}
	edges := float64(0)
	width := float64(1)
	for i := 0; i < levels; i++ {
		edges += width * float64(p.Fanout)
		width *= float64(p.BranchBound)
		if width == 0 {
			break
		}
	}
	if edges == 0 {
		return 0
	}
	nodes := float64(p.Nodes(d))
	share := 1 - (edges+nodes)/(2*edges)
	return math.Max(0, math.Min(1, share))
}

// Summary renders the headline plan facts on one line.
func (p *Plan) Summary() string {
	return fmt.Sprintf("nodes(%d) <= %s, branch <= %d/%d, partition %d",
		p.Depth, FormatBound(p.NodesBound), p.BranchBound, p.Fanout, p.PartitionWidth)
}

// FormatBound renders a saturating node bound ("inf" at the ceiling).
func FormatBound(n uint64) string {
	if n == Sat {
		return "inf"
	}
	return fmt.Sprintf("%d", n)
}

func addSat(a, b uint64) uint64 {
	if a > Sat-b {
		return Sat
	}
	return a + b
}

func mulSat(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > Sat/b {
		return Sat
	}
	return a * b
}

// component is one aligned width-1 slice of a description: the f-side
// IR that must stay ⊑ the g-side's previous value along every edge.
// gcomp may be nil (opaque g): the f-delta analysis stands alone; only
// the length refinements need g.
type component struct {
	fcomp, gcomp *fn.TraceIR
}

// components flattens every description's sides into aligned width-1
// component pairs, compiling and statically verifying each lowerable
// side along the way (the debug/CI invariant this package's consumers
// rely on: everything the surface language expresses must verify).
func components(sys desc.System, lowered *int, verifyErr *string) []component {
	var comps []component
	for _, d := range sys.Descs {
		for _, side := range []fn.TraceFn{d.F, d.G} {
			if prog, ok := descvm.Compile(side); ok {
				*lowered++
				if err := descvm.Verify(prog); err != nil && *verifyErr == "" {
					*verifyErr = fmt.Sprintf("%s: %v", d.Name, err)
				}
			}
		}
		if d.F.IR == nil {
			continue // opaque left side: no static constraint to mine
		}
		fs := flatten(d.F.IR)
		if len(fs) != d.F.Out {
			continue
		}
		var gs []*fn.TraceIR
		if d.G.IR != nil {
			if cand := flatten(d.G.IR); len(cand) == len(fs) {
				gs = cand
			}
		}
		for k, f := range fs {
			c := component{fcomp: f}
			if gs != nil {
				c.gcomp = gs[k]
			}
			comps = append(comps, c)
		}
	}
	return comps
}

// flatten expands top-level IRPair nodes into the width-1 components.
func flatten(ir *fn.TraceIR) []*fn.TraceIR {
	if ir.Kind != fn.IRPair {
		return []*fn.TraceIR{ir}
	}
	var out []*fn.TraceIR
	for _, a := range ir.Args {
		out = append(out, flatten(a)...)
	}
	return out
}

// admitBound returns an upper bound on how many of channel c's
// candidate messages this component admits at any tree node.
func (comp component) admitBound(c string, alpha []value.Value) int {
	admitted := 0
	var pinnedSingles []value.Value // nil entry: value set not a known singleton
	for _, m := range alpha {
		switch d := deltaOf(comp.fcomp, c, m); d.kind {
		case dSame, dMaybe, dUnknown:
			admitted++
		case dPinned:
			if len(d.vals) == 1 {
				pinnedSingles = append(pinnedSingles, d.vals[0])
			} else {
				pinnedSingles = append(pinnedSingles, value.Value{})
			}
		}
	}
	if len(pinnedSingles) == 0 {
		return admitted
	}
	// Pinned refinement 1: if g provably never out-runs f in length,
	// f's forced growth can never fit under g — the pinned messages are
	// all inadmissible.
	if comp.gcomp != nil && lenLeq(comp.gcomp, comp.fcomp) {
		return admitted
	}
	// Pinned refinement 2: all admitted pinned messages must append the
	// single element g forces at this node, so when every pinned value
	// is known exactly, at most the max multiplicity can pass.
	exact := true
	counts := map[string]int{}
	for _, v := range pinnedSingles {
		if v.IsZero() {
			exact = false
			break
		}
		counts[v.String()]++
	}
	if !exact {
		return admitted + len(pinnedSingles)
	}
	maxMult := 0
	for _, n := range counts {
		if n > maxMult {
			maxMult = n
		}
	}
	return admitted + maxMult
}

// eventCap derives a per-path cap on channel c's events from this
// component: when f's length dominates hist(c) (projections don't — a
// filter may shrink) and g's length is constant-bounded by L, every
// admitted node satisfies |hist_c| ≤ |f| ≤ |g| ≤ L.
func (comp component) eventCap(c string) (int, bool) {
	if comp.gcomp == nil || !lenGeqChan(comp.fcomp, c) {
		return 0, false
	}
	return constLenUB(comp.gcomp)
}

// deltaKind is the abstract change of one component's output under one
// candidate event.
type deltaKind int

const (
	dSame deltaKind = iota
	dPinned
	dMaybe
	dUnknown
)

// delta pairs the kind with the possible appended values (nil: unknown).
type delta struct {
	kind deltaKind
	vals []value.Value
}

// deltaOf abstractly interprets appending event (c, m) through ir.
func deltaOf(ir *fn.TraceIR, c string, m value.Value) delta {
	switch ir.Kind {
	case fn.IRChan:
		if ir.Chan == c {
			return delta{kind: dPinned, vals: []value.Value{m}}
		}
		return delta{kind: dSame}

	case fn.IRConst:
		return delta{kind: dSame}

	case fn.IROmega:
		// The finite approximation grows by exactly one period element on
		// every event, on every channel (it tracks raw trace length).
		if ir.Const.Len() == 0 {
			return delta{kind: dSame}
		}
		vals := make([]value.Value, ir.Const.Len())
		for i := range vals {
			vals[i] = ir.Const.At(i)
		}
		return delta{kind: dPinned, vals: vals}

	case fn.IRSeqApply:
		l := ir.Sf.Lower
		if l != nil && l.Kind == fn.LowerConst {
			return delta{kind: dSame}
		}
		arg := deltaOf(ir.Args[0], c, m)
		if l == nil {
			// Opaque but deterministic: an unchanged argument maps to an
			// unchanged result; any change is unanalyzable.
			if arg.kind == dSame {
				return delta{kind: dSame}
			}
			return delta{kind: dUnknown}
		}
		switch l.Kind {
		case fn.LowerPrepend:
			return arg // a constant prefix shifts positions, not deltas
		case fn.LowerMap:
			return mapDelta(arg, l.Map)
		case fn.LowerFilter:
			return filterDelta(arg, l.Pred, true)
		case fn.LowerTakeWhile:
			// Like filter, except a kept element only lands when the
			// takewhile had consumed the whole argument — never "exactly
			// one" statically, so pinned weakens to maybe.
			return filterDelta(arg, l.Pred, false)
		}
		return delta{kind: dUnknown}

	case fn.IRBiApply:
		a := deltaOf(ir.Args[0], c, m)
		b := deltaOf(ir.Args[1], c, m)
		if a.kind == dSame && b.kind == dSame {
			return delta{kind: dSame}
		}
		if ir.Bi.Lower != nil && a.kind != dUnknown && b.kind != dUnknown {
			// Pointwise zip cut at the shorter side: each operand grows by
			// at most one, so the output grows by at most one, value
			// unknown (it pairs with an element of the other side).
			return delta{kind: dMaybe}
		}
		return delta{kind: dUnknown}
	}
	return delta{kind: dUnknown}
}

// mapDelta lifts a pointwise map over a delta.
func mapDelta(arg delta, f func(value.Value) value.Value) delta {
	switch arg.kind {
	case dSame, dUnknown:
		return arg
	}
	if arg.vals == nil {
		return delta{kind: arg.kind}
	}
	vals := make([]value.Value, len(arg.vals))
	for i, v := range arg.vals {
		vals[i] = f(v)
	}
	return delta{kind: arg.kind, vals: vals}
}

// filterDelta lifts a filter (or takewhile, with keepPinned=false) over
// a delta: the appended element survives iff the predicate keeps it.
func filterDelta(arg delta, pred func(value.Value) bool, keepPinned bool) delta {
	switch arg.kind {
	case dSame, dUnknown:
		return arg
	}
	if arg.vals == nil {
		return delta{kind: dMaybe}
	}
	var kept []value.Value
	for _, v := range arg.vals {
		if pred(v) {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return delta{kind: dSame}
	}
	if keepPinned && arg.kind == dPinned && len(kept) == len(arg.vals) {
		return delta{kind: dPinned, vals: kept}
	}
	return delta{kind: dMaybe, vals: kept}
}

// lenLeq proves |g(t)| ≤ |f(t)| for every trace t — the condition under
// which f's forced growth can never be admitted against g.
func lenLeq(g, f *fn.TraceIR) bool {
	if f.Kind == fn.IRChan {
		return lenLeqChan(g, f.Chan)
	}
	if ub, ok := constLenUB(g); ok && ub == 0 {
		return true
	}
	return false
}

// lenLeqChan proves |g(t)| ≤ |hist_c(t)| for every trace t.
func lenLeqChan(g *fn.TraceIR, c string) bool {
	switch g.Kind {
	case fn.IRChan:
		return g.Chan == c
	case fn.IRConst:
		return g.Const.Len() == 0
	case fn.IRSeqApply:
		l := g.Sf.Lower
		if l == nil {
			return false
		}
		switch l.Kind {
		case fn.LowerConst:
			return l.Const.Len() == 0
		case fn.LowerFilter, fn.LowerTakeWhile, fn.LowerMap:
			return lenLeqChan(g.Args[0], c)
		case fn.LowerPrepend:
			return l.Const.Len() == 0 && lenLeqChan(g.Args[0], c)
		}
		return false
	case fn.IRBiApply:
		if g.Bi.Lower == nil {
			return false
		}
		// Zip is cut at the shorter operand.
		return lenLeqChan(g.Args[0], c) || lenLeqChan(g.Args[1], c)
	}
	return false
}

// lenGeqChan proves |f(t)| ≥ |hist_c(t)| for every trace t.
func lenGeqChan(f *fn.TraceIR, c string) bool {
	switch f.Kind {
	case fn.IRChan:
		return f.Chan == c
	case fn.IRSeqApply:
		l := f.Sf.Lower
		if l == nil {
			return false
		}
		switch l.Kind {
		case fn.LowerMap:
			return lenGeqChan(f.Args[0], c)
		case fn.LowerPrepend:
			return lenGeqChan(f.Args[0], c)
		}
		return false
	}
	return false
}

// constLenUB proves |g(t)| ≤ L for every trace t, for constant-bounded
// right-hand sides.
func constLenUB(g *fn.TraceIR) (int, bool) {
	switch g.Kind {
	case fn.IRConst:
		return g.Const.Len(), true
	case fn.IRSeqApply:
		l := g.Sf.Lower
		if l == nil {
			return 0, false
		}
		switch l.Kind {
		case fn.LowerConst:
			return l.Const.Len(), true
		case fn.LowerFilter, fn.LowerTakeWhile, fn.LowerMap:
			return constLenUB(g.Args[0])
		case fn.LowerPrepend:
			if ub, ok := constLenUB(g.Args[0]); ok {
				return l.Const.Len() + ub, true
			}
		}
		return 0, false
	case fn.IRBiApply:
		if g.Bi.Lower == nil {
			return 0, false
		}
		a, aok := constLenUB(g.Args[0])
		b, bok := constLenUB(g.Args[1])
		switch {
		case aok && bok:
			return min(a, b), true
		case aok:
			return a, true
		case bok:
			return b, true
		}
		return 0, false
	}
	return 0, false
}

// partition computes the channel-independence partition: channels are
// linked when a description's combined support touches both. Channels
// no description reads are singleton groups; descriptions reading no
// channel at all form their own group.
func partition(sys desc.System, chans []string) []Group {
	parent := map[string]string{}
	for _, c := range chans {
		parent[c] = c
	}
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	descChans := make([][]string, len(sys.Descs))
	for i, d := range sys.Descs {
		supp := d.F.Support.Union(d.G.Support).Names()
		var present []string
		for _, c := range supp {
			if _, ok := parent[c]; ok {
				present = append(present, c)
			}
		}
		descChans[i] = present
		for j := 1; j < len(present); j++ {
			union(present[0], present[j])
		}
	}
	groups := map[string]*Group{}
	for _, c := range chans {
		r := find(c)
		if groups[r] == nil {
			groups[r] = &Group{}
		}
		groups[r].Channels = append(groups[r].Channels, c)
	}
	var floating []Group // descriptions with no channels
	for i, d := range sys.Descs {
		if len(descChans[i]) == 0 {
			floating = append(floating, Group{Descs: []string{d.Name}})
			continue
		}
		groups[find(descChans[i][0])].Descs = append(groups[find(descChans[i][0])].Descs, d.Name)
	}
	out := make([]Group, 0, len(groups)+len(floating))
	for _, g := range groups {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].Channels, ",") < strings.Join(out[j].Channels, ",")
	})
	return append(out, floating...)
}
