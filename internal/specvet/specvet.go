// Package specvet statically analyzes eqlang programs against the
// paper's theorems before they reach the solver. The headline results
// are *static* facts about descriptions — Theorem 1's hypothesis is a
// disjoint-support check, Theorems 5/6 give syntactic preconditions for
// variable elimination — so a spec can be classified at compile time:
// which descriptions admit the prefix-only smoothness check, which
// channels are eliminable, and which constructions are vacuous or
// unsound. Each finding carries a rule ID, a severity, a source
// position and (where a repair is mechanical) a fix hint.
//
// The rule set (see DESIGN.md for the theorem mapping):
//
//	parse-error, compile-error  (error)   the program does not compile
//	undefined-channel           (error)   channel read without an alphabet
//	support-mismatch            (error)   a side reads outside its declared support
//	growth-bound                (error)   a side exceeds its declared growth bound
//	unused-alphabet             (warning) alphabet channel no description reads
//	duplicate-desc              (warning) two descriptions share a left side
//	divergent-desc              (warning) pointwise v = A·v+B has no alphabet fixpoint
//	thm1-independent            (info)    Theorem 1 applies (prefix-only check)
//	eliminable                  (info)    channel eliminable by Theorems 5/6
//	not-eliminable              (info)    defining-shaped desc fails the Thm 5/6 side conditions
package specvet

import (
	"fmt"
	"sort"
	"strings"

	"smoothproc/internal/desc"
	"smoothproc/internal/descvm"
	"smoothproc/internal/eqlang"
	"smoothproc/internal/fn"
	"smoothproc/internal/specplan"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// Severity grades a finding. Errors make a spec unusable (the service
// rejects it with 400); warnings flag likely mistakes the solver will
// happily search anyway; infos are theorem classifications.
type Severity string

// The severities, ordered error > warning > info.
const (
	SevError   Severity = "error"
	SevWarning Severity = "warning"
	SevInfo    Severity = "info"
)

// rank orders severities for sorting (most severe first).
func (s Severity) rank() int {
	switch s {
	case SevError:
		return 0
	case SevWarning:
		return 1
	default:
		return 2
	}
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Message  string   `json:"message"`
	Hint     string   `json:"hint,omitempty"`
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%d:%d: %s [%s] %s", d.Line, d.Col, d.Severity, d.Rule, d.Message)
	if d.Hint != "" {
		s += fmt.Sprintf(" (hint: %s)", d.Hint)
	}
	return s
}

// ElimVerdict is the machine-readable Theorems 5/6 verdict for one
// defining-shaped description b ⟵ h: whether channel b can be
// eliminated through it, and if not, which side condition blocks it.
// Unlike the info diagnostics (whose messages are prose), the verdict
// carries the system index desc.Eliminate needs, so tools — the
// service's delta-solve endpoint — can act on it without parsing text.
type ElimVerdict struct {
	Channel    string `json:"channel"`
	Desc       string `json:"desc"`
	Index      int    `json:"index"`
	Eliminable bool   `json:"eliminable"`
	Reason     string `json:"reason,omitempty"`
}

// Result is the analysis of one spec.
type Result struct {
	Findings []Diagnostic `json:"findings"`
	// Eliminations lists the Theorems 5/6 verdicts, one per
	// defining-shaped description, in system order.
	Eliminations []ElimVerdict `json:"eliminations,omitempty"`
	// Plan is the static search-cost analysis at the spec's declared
	// depth, nil when compilation failed. The service reuses it for
	// admission control; the Nodes/MinNodes methods answer any depth.
	Plan *specplan.Plan `json:"plan,omitempty"`
	// Program is the compiled program, nil when compilation failed (in
	// which case Findings holds exactly one error diagnostic).
	Program *eqlang.Program `json:"-"`
}

// Eliminable returns the positive verdict for the given channel, if any
// defining description admits its elimination.
func (r Result) Eliminable(channel string) (ElimVerdict, bool) {
	for _, v := range r.Eliminations {
		if v.Channel == channel && v.Eliminable {
			return v, true
		}
	}
	return ElimVerdict{}, false
}

// HasErrors reports whether any finding is an error.
func (r Result) HasErrors() bool {
	for _, d := range r.Findings {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Counts returns the number of errors, warnings and infos.
func (r Result) Counts() (errs, warns, infos int) {
	for _, d := range r.Findings {
		switch d.Severity {
		case SevError:
			errs++
		case SevWarning:
			warns++
		default:
			infos++
		}
	}
	return
}

// Text renders the findings one per line, prefixed with name (usually
// the file path), in the stable order Vet produced them.
func (r Result) Text(name string) string {
	var b strings.Builder
	for _, d := range r.Findings {
		fmt.Fprintf(&b, "%s:%s\n", name, d)
	}
	if len(r.Findings) == 0 {
		fmt.Fprintf(&b, "%s: clean\n", name)
	}
	if r.Plan != nil {
		fmt.Fprintf(&b, "%s: plan: %s\n", name, r.Plan.Summary())
	}
	return b.String()
}

// analyze and newSession are what Vet calls to plan a program and to
// open a VM session on a probed side; the build-once tests replace them
// to see which combined description the planner reads and how many
// sessions the probe opens.
var (
	analyze    = specplan.AnalyzeCombined
	newSession = (*descvm.Prog).NewSession
)

// maxProbeTraces bounds the sample set used for support/growth probing.
const maxProbeTraces = 256

// probeDepth is how deep the probe traces go.
const probeDepth = 3

// Vet parses, compiles and analyzes one eqlang source.
func Vet(src string) Result {
	var r Result
	f, err := eqlang.Parse(src)
	if err != nil {
		r.Findings = append(r.Findings, errDiag("parse-error", err))
		return r
	}

	alpha := map[string]eqlang.AlphabetStmt{}
	for _, a := range f.Alphabets {
		if _, dup := alpha[a.Channel]; !dup {
			alpha[a.Channel] = a
		}
	}
	refs := channelRefs(f)

	// undefined-channel: a referenced channel with no alphabet cannot be
	// branched on; this is also a compile error, but the AST gives the
	// exact use position rather than the enclosing description.
	undefined := false
	for _, ch := range sortedKeys(refs) {
		if _, ok := alpha[ch]; ok {
			continue
		}
		undefined = true
		use := refs[ch][0]
		r.Findings = append(r.Findings, Diagnostic{
			Rule: "undefined-channel", Severity: SevError,
			Line: use.Line, Col: use.Col,
			Message: fmt.Sprintf("channel %s is read but has no alphabet statement", ch),
			Hint:    fmt.Sprintf("add `alphabet %s = {...}` (the solver needs finite branching data)", ch),
		})
	}
	if undefined {
		sortFindings(r.Findings)
		return r
	}

	p, err := eqlang.Compile(f)
	if err != nil {
		r.Findings = append(r.Findings, errDiag("compile-error", err))
		return r
	}
	r.Program = p
	r.Plan = analyze(p.System, p.Problem().D, p.Alphabet, p.Depth)

	r.Findings = append(r.Findings, vetUnusedAlphabets(f, refs)...)
	r.Findings = append(r.Findings, vetDuplicateDescs(f)...)
	r.Findings = append(r.Findings, vetDivergentDescs(f, p)...)
	r.Findings = append(r.Findings, vetDeclaredContracts(f, p, newProbe(p.Alphabet, probeDepth, maxProbeTraces))...)
	r.Findings = append(r.Findings, vetTheorem1(f, p)...)
	elimDiags, verdicts := vetElimination(f, p)
	r.Findings = append(r.Findings, elimDiags...)
	r.Eliminations = verdicts
	sortFindings(r.Findings)
	return r
}

// errDiag turns a compile/parse error into a positioned diagnostic.
func errDiag(rule string, err error) Diagnostic {
	d := Diagnostic{Rule: rule, Severity: SevError, Line: 1, Col: 1, Message: err.Error()}
	if e, ok := err.(*eqlang.Error); ok {
		d.Line, d.Message = e.Line, e.Msg
		if e.Col > 0 {
			d.Col = e.Col
		}
	}
	return d
}

// channelRefs walks every description expression and records where each
// channel is read.
func channelRefs(f *eqlang.File) map[string][]*eqlang.ChanExpr {
	refs := map[string][]*eqlang.ChanExpr{}
	for _, d := range f.Descs {
		for _, side := range []eqlang.Expr{d.Lhs, d.Rhs} {
			walkExpr(side, func(e eqlang.Expr) {
				if c, ok := e.(*eqlang.ChanExpr); ok {
					refs[c.Name] = append(refs[c.Name], c)
				}
			})
		}
	}
	return refs
}

// walkExpr visits e and its subexpressions in source order.
func walkExpr(e eqlang.Expr, visit func(eqlang.Expr)) {
	visit(e)
	switch n := e.(type) {
	case *eqlang.CallExpr:
		for _, a := range n.Args {
			walkExpr(a, visit)
		}
	case *eqlang.LinearExpr:
		walkExpr(n.Inner, visit)
	case *eqlang.ConcatExpr:
		walkExpr(n.Rest, visit)
	}
}

// vetUnusedAlphabets flags alphabets no description reads: the solver
// still branches over their events, so every junk channel multiplies the
// tree's fan-out without constraining anything.
func vetUnusedAlphabets(f *eqlang.File, refs map[string][]*eqlang.ChanExpr) []Diagnostic {
	var ds []Diagnostic
	for _, a := range f.Alphabets {
		if len(refs[a.Channel]) > 0 {
			continue
		}
		ds = append(ds, Diagnostic{
			Rule: "unused-alphabet", Severity: SevWarning,
			Line: a.Line, Col: a.Col,
			Message: fmt.Sprintf("alphabet %s is declared but no description reads the channel", a.Channel),
			Hint:    "remove it, or reference the channel: unconstrained channels still branch the search",
		})
	}
	return ds
}

// vetDuplicateDescs flags descriptions whose left sides render
// identically: the later one shadows nothing — both constrain the same
// history, which is almost always a copy-paste slip.
func vetDuplicateDescs(f *eqlang.File) []Diagnostic {
	var ds []Diagnostic
	seen := map[string]eqlang.DescStmt{}
	for _, d := range f.Descs {
		key := exprString(d.Lhs)
		if first, dup := seen[key]; dup {
			ds = append(ds, Diagnostic{
				Rule: "duplicate-desc", Severity: SevWarning,
				Line: d.Line, Col: d.Col,
				Message: fmt.Sprintf("%s has the same left side %q as %s (line %d)", d.Name, key, first.Name, first.Line),
				Hint:    "both equations constrain the same history; merge them or fix the left side",
			})
			continue
		}
		seen[key] = d
	}
	return ds
}

// vetDivergentDescs flags c ⟵ A·c + B when no alphabet value is a
// fixpoint of v = A·v + B: the first element of any nonempty history on
// c would need to be one, so the description forces hist(c) = ⊥ and the
// equation is vacuous over its declared alphabet.
func vetDivergentDescs(f *eqlang.File, p *eqlang.Program) []Diagnostic {
	var ds []Diagnostic
	for _, d := range f.Descs {
		lhs, ok := d.Lhs.(*eqlang.ChanExpr)
		if !ok {
			continue
		}
		lin, ok := d.Rhs.(*eqlang.LinearExpr)
		if !ok {
			continue
		}
		inner, ok := lin.Inner.(*eqlang.ChanExpr)
		if !ok || inner.Name != lhs.Name {
			continue
		}
		if lin.A == 1 && lin.B == 0 {
			continue
		}
		if hasLinearFixpoint(p.Alphabet[lhs.Name], lin.A, lin.B) {
			continue
		}
		ds = append(ds, Diagnostic{
			Rule: "divergent-desc", Severity: SevWarning,
			Line: d.Line, Col: d.Col,
			Message: fmt.Sprintf("%s: no value in alphabet %s satisfies v = %d*v%+d; only hist(%s) = ⊥ solves it",
				d.Name, lhs.Name, lin.A, lin.B, lhs.Name),
			Hint: "widen the alphabet to include a fixpoint, or drop the vacuous equation",
		})
	}
	return ds
}

func hasLinearFixpoint(vals []value.Value, a, b int64) bool {
	for _, v := range vals {
		n, ok := v.AsInt()
		if ok && n == a*n+b {
			return true
		}
	}
	return false
}

// vetDeclaredContracts probes each compiled side against its declared
// support and growth bound — the metadata Theorem 1 classification and
// the elimination conditions rely on, so a lie here would silently
// unsound the info-level rules (and the solver's fast path).
//
// The support probe is compatibility-based, not equality-based: it
// requires f(t↾supp f) ⊑ f(t). An ω-constant like `repeat [x]` declares
// an empty support yet legitimately grows with the probe length of its
// argument, so equality would false-positive; a side actually reading a
// channel outside its support disagrees in content, which ⊑ catches.
//
// A side that lowers runs on the descvm bytecode the search compiles for
// it, so the contract checked is the one the search relies on: one
// session views every sample, and a sample's support projection, itself
// an earlier sample (see probe.project), is compared through the view
// kept when that sample was viewed.
func vetDeclaredContracts(f *eqlang.File, p *eqlang.Program, pr *probe) []Diagnostic {
	var ds []Diagnostic
	for i, d := range p.System.Descs {
		stmt := f.Descs[i]
		for _, s := range [...]struct {
			name string
			tf   fn.TraceFn
		}{{"left", d.F}, {"right", d.G}} {
			msg, err := pr.check(s.tf)
			if msg != "" {
				ds = append(ds, Diagnostic{
					Rule: "support-mismatch", Severity: SevError,
					Line: stmt.Line, Col: stmt.Col,
					Message: fmt.Sprintf("%s: %s side: %s", d.Name, s.name, msg),
					Hint:    "the declared support feeds Theorem 1 and elimination checks; fix the combinator's Support",
				})
			}
			if err != nil {
				ds = append(ds, Diagnostic{
					Rule: "growth-bound", Severity: SevError,
					Line: stmt.Line, Col: stmt.Col,
					Message: fmt.Sprintf("%s: %s side: %v", d.Name, s.name, err),
				})
			}
		}
	}
	return ds
}

// probe is the sample set the declared contracts are checked on: the
// traces over the alphabet's events, channels in sorted order, listed
// breadth-first up to a depth and capped at a count. The list is a
// prefix of the complete n-ary tree of traces (n events) in heap order:
// sample k ≥ 1 extends sample (k-1)/n by events[(k-1)%n], and the son
// of sample j by events[e] is sample j·n+1+e. The samples are the nodes
// of a trace.Tree, numbered as listed, so the VM views them by ID and a
// trace is built only for a side the VM cannot run and for a finding.
type probe struct {
	tree *trace.Tree
	// proj holds one side's support projections, and onSupp the events
	// on its support; both are reused from side to side.
	proj   []int
	onSupp []bool
	// kept holds a lowered side's views of the samples that are their
	// own projections, by sample, carved from arena, which each side
	// resets.
	kept  []fn.Tuple
	arena descvm.Arena
}

// newProbe lists the samples breadth-first up to the given depth,
// capped at max traces.
func newProbe(alphabet map[string][]value.Value, depth, max int) *probe {
	var events []trace.Event
	for _, c := range sortedKeys(alphabet) {
		for _, v := range alphabet[c] {
			events = append(events, trace.E(c, v))
		}
	}
	n := len(events)
	count := 1
	for d, level := 0, 1; d < depth && count < max && n > 0; d++ {
		level = min(level*n, max)
		count = min(count+level, max)
	}
	p := &probe{tree: trace.NewTree(events), proj: make([]int, count), onSupp: make([]bool, n), kept: make([]fn.Tuple, count)}
	for k := 1; k < count; k++ {
		p.tree.Add(trace.ID((k-1)/n), (k-1)%n)
	}
	return p
}

// project fills p.proj so that sample p.proj[k] equals sample k↾s.
// Such a sample exists: the list is prefix-closed and every level but
// the last is complete, so t↾s, when shorter than t, lies on a complete
// level, and otherwise is t itself. A sample's projection is its
// parent's when its last event lies off s, else that projection's son
// by the event. So a projection is never a later sample, and is its
// own projection.
func (p *probe) project(s trace.ChanSet) {
	n := len(p.onSupp)
	for e, ev := range p.tree.Alphabet() {
		p.onSupp[e] = s.Has(ev.Ch)
	}
	for k := 1; k < len(p.proj); k++ {
		j, e := p.proj[(k-1)/n], (k-1)%n
		if p.onSupp[e] {
			j = j*n + 1 + e
		}
		p.proj[k] = j
	}
}

// check runs tf on every sample and returns a description of the first
// support violation ("" if the side honors its declaration on all
// samples) and the first growth-bound violation. A side that lowers runs
// on one descvm session, which views the samples in order: a sample that
// is its own projection honors the support trivially, and its view is
// kept if a later sample may project onto it, that is, if it lies above
// the last level; any other sample's view is compared in place with its
// projection's kept view. The growth check reads the view, so only
// projections are copied. A side that does not lower takes the loop of
// checkApply.
func (p *probe) check(tf fn.TraceFn) (string, error) {
	p.project(tf.Support)
	prog, ok := descvm.Compile(tf)
	if !ok {
		return p.checkApply(tf)
	}
	s := newSession(prog)
	p.arena.Reset()
	// Only a sample above the last level can be a later one's projection.
	deepest := p.tree.Len(trace.ID(len(p.proj) - 1))
	var msg string
	var err error
	for k, j := range p.proj {
		id := trace.ID(k)
		whole := s.View(p.tree, id)
		if err == nil {
			err = fn.CheckOutputGrowth(tf, p.tree.Len(id), whole, func() string { return string(p.tree.AppendString(nil, id)) })
		}
		if msg == "" {
			switch {
			case j != k:
				msg = p.supportViolation(tf, id, trace.ID(j), whole, p.kept[j])
			case p.tree.Len(id) < deepest:
				p.kept[k] = s.KeepIn(whole, &p.arena)
			}
		}
		if msg != "" && err != nil {
			break
		}
	}
	return msg, err
}

// checkApply is check for a side that does not lower: it applies tf to
// every sample's built trace, and to each sample's projection when that
// changes from the previous sample's.
func (p *probe) checkApply(tf fn.TraceFn) (string, error) {
	apply := func(id trace.ID) fn.Tuple { return tf.Apply(p.tree.Trace(id)) }
	var msg string
	var err error
	var onSupp fn.Tuple
	last := -1
	for k := range p.proj {
		id := trace.ID(k)
		whole := apply(id)
		if err == nil {
			err = fn.CheckOutputGrowth(tf, p.tree.Len(id), whole, func() string { return string(p.tree.AppendString(nil, id)) })
		}
		if msg == "" {
			j := p.proj[k]
			if j != last {
				onSupp, last = apply(trace.ID(j)), j
			}
			msg = p.supportViolation(tf, id, trace.ID(j), whole, onSupp)
		}
		if msg != "" && err != nil {
			break
		}
	}
	return msg, err
}

// supportViolation compares tf's output on sample t with its output on
// t's support projection proj. Exact functions must be invariant under
// projection to their support; ω-approximations (fn.TraceFn.Omega)
// legitimately shorten under projection, so only compatibility is
// required of them.
func (p *probe) supportViolation(tf fn.TraceFn, t, proj trace.ID, whole, onSupp fn.Tuple) string {
	if tf.Omega {
		if !onSupp.Leq(whole) {
			return fmt.Sprintf("ω-approximation on support projection %s does not approximate the output on %s",
				p.tree.AppendString(nil, proj), p.tree.AppendString(nil, t))
		}
		return ""
	}
	if !whole.Equal(onSupp) {
		return fmt.Sprintf("output on %s differs from the output on its support projection %s (declared support %v)",
			p.tree.AppendString(nil, t), p.tree.AppendString(nil, proj), tf.Support.Names())
	}
	return ""
}

// vetTheorem1 classifies each description — and the combined system the
// solver actually searches, the program's memoized Problem().D — by
// Theorem 1's hypothesis supp(f) ∩ supp(g) = ∅. Independent
// descriptions admit the prefix-only smoothness characterization, which
// the solver exploits whenever the combined description is
// desc.Description.Thm1Eligible.
func vetTheorem1(f *eqlang.File, p *eqlang.Program) []Diagnostic {
	var ds []Diagnostic
	for i, d := range p.System.Descs {
		if !d.Independent() {
			continue
		}
		stmt := f.Descs[i]
		ds = append(ds, Diagnostic{
			Rule: "thm1-independent", Severity: SevInfo,
			Line: stmt.Line, Col: stmt.Col,
			Message: fmt.Sprintf("%s: supports %v and %v are disjoint — eligible for the prefix-only smoothness check (Theorem 1)",
				d.Name, d.F.Support.Names(), d.G.Support.Names()),
		})
	}
	if combined := p.Problem().D; combined.Independent() {
		first := f.Descs[0]
		msg := "combined system: supports are disjoint — the solver takes the Theorem 1 fast path"
		if !combined.Thm1Eligible() {
			msg = "combined system: supports are disjoint, but the left side is an ω-approximation — the solver keeps the full edge check"
		}
		ds = append(ds, Diagnostic{
			Rule: "thm1-independent", Severity: SevInfo,
			Line: first.Line, Col: first.Col,
			Message: msg,
		})
	}
	return ds
}

// vetElimination reports, for every defining-shaped description b ⟵ h
// (left side exactly the history of one channel), whether channel b can
// be eliminated by Theorems 5/6 — and if not, which side condition
// blocks it. Besides the prose diagnostics it returns the structured
// verdicts consumers act on (Result.Eliminations).
func vetElimination(f *eqlang.File, p *eqlang.Program) ([]Diagnostic, []ElimVerdict) {
	var ds []Diagnostic
	var vs []ElimVerdict
	if len(p.System.Descs) < 2 {
		return ds, vs
	}
	elim := desc.NewEliminability(p.System)
	for i, d := range p.System.Descs {
		lhs, ok := f.Descs[i].Lhs.(*eqlang.ChanExpr)
		if !ok {
			continue
		}
		b := lhs.Name
		stmt := f.Descs[i]
		if err := elim.Check(i, b); err != nil {
			ds = append(ds, Diagnostic{
				Rule: "not-eliminable", Severity: SevInfo,
				Line: stmt.Line, Col: stmt.Col,
				Message: fmt.Sprintf("channel %s is not eliminable via %s: %v", b, d.Name, err),
			})
			vs = append(vs, ElimVerdict{Channel: b, Desc: d.Name, Index: i, Reason: err.Error()})
			continue
		}
		ds = append(ds, Diagnostic{
			Rule: "eliminable", Severity: SevInfo,
			Line: stmt.Line, Col: stmt.Col,
			Message: fmt.Sprintf("channel %s can be eliminated using %s (Theorems 5/6); the reduced system has the same solutions on the remaining channels", b, d.Name),
		})
		vs = append(vs, ElimVerdict{Channel: b, Desc: d.Name, Index: i, Eliminable: true})
	}
	return ds, vs
}

// exprString renders an expression for duplicate detection and
// diagnostics, mirroring the surface syntax.
func exprString(e eqlang.Expr) string {
	switch n := e.(type) {
	case *eqlang.ChanExpr:
		return n.Name
	case *eqlang.CallExpr:
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = exprString(a)
		}
		return fmt.Sprintf("%s(%s)", n.Fn, strings.Join(args, ", "))
	case *eqlang.ConstExpr:
		return valsString(n.Vals)
	case *eqlang.RepeatExpr:
		return "repeat " + valsString(n.Period)
	case *eqlang.LinearExpr:
		s := exprString(n.Inner)
		if n.A != 1 {
			s = fmt.Sprintf("%d*%s", n.A, s)
		}
		if n.B != 0 {
			s = fmt.Sprintf("%s%+d", s, n.B)
		}
		return s
	case *eqlang.ConcatExpr:
		return fmt.Sprintf("%s ; %s", valsString(n.Prefix), exprString(n.Rest))
	default:
		return fmt.Sprintf("%T", e)
	}
}

func valsString(vals []value.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// sortFindings orders diagnostics by position, then severity, then rule
// — a stable order for goldens and the service response.
func sortFindings(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Severity != b.Severity {
			return a.Severity.rank() < b.Severity.rank()
		}
		return a.Rule < b.Rule
	})
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
