// Package check is the conformance harness tying the two halves of the
// reproduction together: it verifies, per process or network, the paper's
// central claim that smooth solutions correspond to computations and vice
// versa (Section 3.2.2), including the auxiliary-channel refinement of
// Section 8.2 (smooth solutions are projected onto the non-auxiliary
// incident channels before comparison).
package check

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"smoothproc/internal/desc"
	"smoothproc/internal/netsim"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
)

// Conformance describes one process/network comparison.
type Conformance struct {
	// Name labels failures.
	Name string
	// Spec is the operational network.
	Spec netsim.Spec
	// Problem carries the description and the solver's branching data
	// over all channels, including auxiliaries.
	Problem solver.Problem
	// Visible is the non-auxiliary channel set; both sides are projected
	// onto it before comparison. Leave nil to compare unprojected.
	Visible trace.ChanSet
	// LenCap compares only traces whose visible length is ≤ LenCap, so
	// both sides' exploration bounds cover the compared region. The
	// caller must pick Problem.MaxDepth and MaxDecisions generously
	// relative to LenCap.
	LenCap int
	// MaxDecisions bounds the operational script depth.
	MaxDecisions int
	// Opts bounds the operational searches.
	Opts netsim.RealizeOpts
}

// Mode selects which conformance comparison applies to a network. The
// generated corpus tags every instance with the mode its family is
// checkable under, so one driver (Conformance.Check) can sweep a
// heterogeneous corpus.
type Mode int

const (
	// ModeQuiescent is CheckQuiescent: set equality of quiescent traces
	// and smooth solutions. Right for networks whose every maximal run
	// terminates (finite feeders).
	ModeQuiescent Mode = iota
	// ModeHistories is CheckHistories: reachable histories equal tree
	// nodes. Right for ω-processes with no finite quiescent trace
	// (clocks, repeat-feeders).
	ModeHistories
	// ModeRefines is CheckRefines: one-sided containment, for
	// deterministic implementations of nondeterministic specifications.
	ModeRefines
)

// String names the mode for shape strings and failure messages.
func (m Mode) String() string {
	switch m {
	case ModeQuiescent:
		return "quiescent"
	case ModeHistories:
		return "histories"
	case ModeRefines:
		return "refines"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Check dispatches to the comparison the mode selects.
func (c Conformance) Check(ctx context.Context, m Mode) error {
	switch m {
	case ModeQuiescent:
		return c.CheckQuiescent(ctx)
	case ModeHistories:
		return c.CheckHistories(ctx)
	case ModeRefines:
		return c.CheckRefines(ctx)
	default:
		return fmt.Errorf("check: %s: unknown mode %d", c.Name, int(m))
	}
}

func (c Conformance) project(t trace.Trace) trace.Trace {
	if c.Visible == nil {
		return t
	}
	return t.Project(c.Visible)
}

func (c Conformance) capped(set map[string]trace.Trace) map[string]trace.Trace {
	out := map[string]trace.Trace{}
	for _, t := range set {
		p := c.project(t)
		if p.Len() <= c.LenCap {
			out[p.String()] = p
		}
	}
	return out
}

// denotational returns the visible projections, up to the caps, of the
// description's finite smooth solutions and of its §3.3 tree nodes. A
// search stopped before its bounds has classified only a prefix of the
// tree, and comparing that would report a false mismatch, so a stop is
// an error wrapping the context's error, or solver.ErrBudget. In a
// search that ran to its bounds, every node that is not a solution,
// frontier node or dead leaf has a son, so the tree's nodes are the
// prefixes of those three lists.
func (c Conformance) denotational(ctx context.Context) (sols, nodes map[string]trace.Trace, err error) {
	res := solver.Enumerate(ctx, c.Problem)
	switch {
	case res.Canceled:
		return nil, nil, fmt.Errorf("check: %s: search stopped: %w", c.Name, ctx.Err())
	case res.Truncated:
		return nil, nil, fmt.Errorf("check: %s: search stopped: %w", c.Name, solver.ErrBudget)
	}
	sols, nodes = map[string]trace.Trace{}, map[string]trace.Trace{}
	for _, t := range res.Solutions.Traces() {
		sols[t.String()] = t
	}
	for _, ts := range [][]trace.Trace{res.Solutions.Traces(), res.Frontier.Traces(), res.DeadLeaves.Traces()} {
		for _, t := range ts {
			for _, u := range t.Prefixes() {
				nodes[u.String()] = u
			}
		}
	}
	return c.capped(sols), c.capped(nodes), nil
}

// OperationalQuiescent returns the visible projections of the network's
// quiescent traces, up to the caps.
func (c Conformance) OperationalQuiescent() map[string]trace.Trace {
	return c.capped(netsim.QuiescentTraces(c.Spec, c.MaxDecisions, c.Opts))
}

// DenotationalSolutions returns the visible projections of the
// description's finite smooth solutions, up to the caps. It fails when
// the search stops before its bounds.
func (c Conformance) DenotationalSolutions(ctx context.Context) (map[string]trace.Trace, error) {
	sols, _, err := c.denotational(ctx)
	return sols, err
}

// CheckQuiescent verifies set equality of the two sides — the paper's
// "the set of smooth solutions ... is the set of process traces", for
// the finite traces within the caps.
func (c Conformance) CheckQuiescent(ctx context.Context) error {
	den, err := c.DenotationalSolutions(ctx)
	if err != nil {
		return err
	}
	op := c.OperationalQuiescent()
	var missingDen, missingOp []string
	for k := range op {
		if _, ok := den[k]; !ok {
			missingDen = append(missingDen, k)
		}
	}
	for k := range den {
		if _, ok := op[k]; !ok {
			missingOp = append(missingOp, k)
		}
	}
	sort.Strings(missingDen)
	sort.Strings(missingOp)
	if len(missingDen)+len(missingOp) > 0 {
		return fmt.Errorf("check: %s: quiescent mismatch:\n  operational but not smooth: %s\n  smooth but not operational: %s",
			c.Name, strings.Join(missingDen, " "), strings.Join(missingOp, " "))
	}
	return nil
}

// CheckHistories verifies the prefix-level correspondence: every
// operationally reachable communication history (visible, within caps)
// is the projection of some node of the Section 3.3 tree, and every tree
// node's visible projection is operationally reachable. This is the
// right comparison for processes with no finite quiescent trace (Ticks,
// FairRandomSeq, the seeded Figure 1 loop).
func (c Conformance) CheckHistories(ctx context.Context) error {
	_, den, err := c.denotational(ctx)
	if err != nil {
		return err
	}
	op := c.capped(netsim.Histories(c.Spec, c.MaxDecisions, c.Opts))
	var missingDen, missingOp []string
	for k := range op {
		if _, ok := den[k]; !ok {
			missingDen = append(missingDen, k)
		}
	}
	for k := range den {
		if _, ok := op[k]; !ok {
			missingOp = append(missingOp, k)
		}
	}
	sort.Strings(missingDen)
	sort.Strings(missingOp)
	if len(missingDen)+len(missingOp) > 0 {
		return fmt.Errorf("check: %s: history mismatch:\n  operational but not a tree node: %s\n  tree node but unreachable: %s",
			c.Name, strings.Join(missingDen, " "), strings.Join(missingOp, " "))
	}
	return nil
}

// RandomRunsAreSmooth runs the network under the given seeds and checks
// that every run trace's prefixes are tree nodes of the description and
// that quiescent runs end on smooth solutions (after projection, the run
// trace must appear among the denotational solutions when auxiliaries are
// involved; without auxiliaries the direct smoothness check applies).
// This is the cheap, high-volume direction of the conformance argument,
// usable where exhaustive search is too wide.
func RandomRunsAreSmooth(ctx context.Context, c Conformance, seeds []int64, limits netsim.Limits) error {
	denOnce := map[string]trace.Trace(nil)
	for _, seed := range seeds {
		run := netsim.RunContext(ctx, c.Spec, netsim.NewRandomDecider(seed), limits)
		if run.Err != nil {
			return fmt.Errorf("check: %s: seed %d: %w", c.Name, seed, run.Err)
		}
		if run.Reason == netsim.StopCanceled {
			return fmt.Errorf("check: %s: seed %d: run stopped: %w", c.Name, seed, ctx.Err())
		}
		if c.Visible == nil {
			// Direct: feed the run through the incremental monitor —
			// every step must be a smooth edge, and a quiescent stop
			// must land on a smooth solution.
			m := desc.NewMonitor(c.Problem.D)
			if err := m.StepAll(run.Trace); err != nil {
				return fmt.Errorf("check: %s: seed %d: %w", c.Name, seed, err)
			}
			if run.Reason == netsim.StopQuiescent && !m.Quiescent() {
				return fmt.Errorf("check: %s: seed %d: quiescent run %s fails the limit condition", c.Name, seed, run.Trace)
			}
			continue
		}
		// With auxiliaries: the projected quiescent trace must be among
		// the projected smooth solutions.
		if run.Reason != netsim.StopQuiescent {
			continue
		}
		p := c.project(run.Trace)
		if p.Len() > c.LenCap {
			continue
		}
		if denOnce == nil {
			var err error
			if denOnce, err = c.DenotationalSolutions(ctx); err != nil {
				return err
			}
		}
		if _, ok := denOnce[p.String()]; !ok {
			return fmt.Errorf("check: %s: seed %d: quiescent run %s matches no projected smooth solution", c.Name, seed, p)
		}
	}
	return nil
}

// CheckRefines verifies the one-sided use of a description as a
// SPECIFICATION (Section 8.3: "we recommend using descriptions as
// specifications"): every operational behaviour must be admitted by the
// description — quiescent traces must be smooth solutions and histories
// must be tree nodes — but the converse is not required, so a
// deterministic implementation may refine a nondeterministic spec.
func (c Conformance) CheckRefines(ctx context.Context) error {
	den, nodes, err := c.denotational(ctx)
	if err != nil {
		return err
	}
	for _, tr := range c.OperationalQuiescent() {
		if _, ok := den[tr.String()]; !ok {
			return fmt.Errorf("check: %s: quiescent behaviour %s outside the specification", c.Name, tr)
		}
	}
	for _, h := range c.capped(netsim.Histories(c.Spec, c.MaxDecisions, c.Opts)) {
		if _, ok := nodes[h.String()]; !ok {
			return fmt.Errorf("check: %s: history %s outside the specification's tree", c.Name, h)
		}
	}
	return nil
}

// SolutionsAreRealizable verifies the constructive direction one trace at
// a time: every denotational solution (projected, capped) must be
// realisable as a quiescent trace by some schedule.
func SolutionsAreRealizable(ctx context.Context, c Conformance) error {
	den, err := c.DenotationalSolutions(ctx)
	if err != nil {
		return err
	}
	for _, target := range sortedTraces(den) {
		r := netsim.Realize(c.Spec, target, c.Opts)
		if !r.Found {
			suffix := ""
			if r.Exhausted {
				suffix = " (search budget exhausted — inconclusive)"
			}
			return fmt.Errorf("check: %s: smooth solution %s not realisable%s", c.Name, target, suffix)
		}
	}
	return nil
}

func sortedTraces(set map[string]trace.Trace) []trace.Trace {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]trace.Trace, len(keys))
	for i, k := range keys {
		out[i] = set[k]
	}
	return out
}
