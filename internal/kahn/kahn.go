// Package kahn implements the deterministic special case the paper builds
// on: Kahn's equational semantics for networks of deterministic processes
// (Section 2.1), the Kleene least-fixpoint evaluator over tuples of
// message sequences, and the bridge of Section 6 — the least fixpoint of
// a continuous h is the unique smooth solution of the description id ⟵ h
// (Theorem 4).
package kahn

import (
	"context"
	"fmt"

	"smoothproc/internal/cpo"
	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// Equations is a Kahn system x = h(x) over named channels: for each
// channel, a continuous function of the whole channel environment giving
// that channel's sequence. Deterministic processes contribute one
// equation per output channel (Section 2.1); input-only channels are
// given as constants.
type Equations struct {
	Name string
	// Channels fixes the tuple order.
	Channels []string
	// Rhs[i] computes channel Channels[i] from the environment.
	Rhs []func(env Env) seq.Seq
}

// Env is a channel environment: one sequence per channel.
type Env map[string]seq.Seq

// apply computes h(x) as a fresh environment.
func (eq Equations) apply(env Env) Env {
	out := make(Env, len(eq.Channels))
	for i, c := range eq.Channels {
		out[c] = eq.Rhs[i](env)
	}
	return out
}

// FixResult reports a bounded Kleene iteration over the equations.
type FixResult struct {
	// Env is the final iterate.
	Env Env
	// Steps is the number of applications performed.
	Steps int
	// Converged reports exact convergence: the iterate is the least
	// fixpoint, not just a lower approximation. Networks with infinite
	// behaviour (e.g. Figure 1's 0^ω variant) never converge; use LenCap
	// to study their growing approximations.
	Converged bool
}

// Solve runs Kleene iteration from the ⊥ environment. lenCap truncates
// every sequence after each step — the finite window onto ω-behaviour;
// pass lenCap <= 0 for no truncation. maxSteps bounds the iteration.
// It returns an error if an iterate fails to ascend, refuting the
// continuity assumption on the right-hand sides.
func (eq Equations) Solve(maxSteps, lenCap int) (FixResult, error) {
	cur := make(Env, len(eq.Channels))
	for _, c := range eq.Channels {
		cur[c] = seq.Empty
	}
	res := FixResult{}
	for i := 0; i < maxSteps; i++ {
		next := eq.apply(cur)
		if lenCap > 0 {
			for c, s := range next {
				next[c] = s.Take(lenCap)
			}
		}
		stable := true
		for _, c := range eq.Channels {
			if !cur[c].Leq(next[c]) {
				return res, fmt.Errorf("kahn: %s: channel %s not ascending at step %d: %s ⋢ %s",
					eq.Name, c, i, cur[c], next[c])
			}
			if !cur[c].Equal(next[c]) {
				stable = false
			}
		}
		res.Steps = i + 1
		if stable {
			res.Env = cur
			res.Converged = true
			return res, nil
		}
		cur = next
	}
	res.Env = cur
	return res, nil
}

// Domain builds the cpo.Domain of environments for these equations, so
// the generic Section 6 machinery applies to them directly.
func (eq Equations) Domain() cpo.Domain[Env] {
	leq := func(a, b Env) bool {
		for _, c := range eq.Channels {
			if !a[c].Leq(b[c]) {
				return false
			}
		}
		return true
	}
	bottom := make(Env, len(eq.Channels))
	for _, c := range eq.Channels {
		bottom[c] = seq.Empty
	}
	return cpo.Domain[Env]{
		Name:   "Env(" + eq.Name + ")",
		Leq:    leq,
		Eq:     cpo.EqFromLeq(leq),
		Bottom: bottom,
		Join:   cpo.ChainJoin(leq),
	}
}

// Fn wraps the equations as a cpo endofunction.
func (eq Equations) Fn() cpo.Fn[Env] {
	return cpo.Fn[Env]{Name: eq.Name, Apply: func(e Env) Env { return eq.apply(e) }}
}

// IdentityDescription builds the trace-level description id ⟵ h of
// Theorem 4 for a single-channel equation c = h(c): the left side is the
// channel function c, the right side h applied to c's history.
func IdentityDescription(c string, h fn.SeqFn) desc.Description {
	return desc.MustNew("id ⟵ "+h.Name, fn.ChanFn(c), fn.OnChan(h, c))
}

// CheckTheorem4Trace verifies Theorem 4 in the trace cpo for a
// single-channel equation c = h(c) whose least fixpoint is reached within
// maxSteps: the Section 3.3 tree search over the given alphabet must find
// exactly one smooth solution, and it must equal the Kleene least
// fixpoint. depth must be at least the fixpoint's length.
func CheckTheorem4Trace(ctx context.Context, c string, h fn.SeqFn, alphabet []value.Value, maxSteps, depth int) error {
	eq := Equations{
		Name:     "x=" + h.Name + "(x)",
		Channels: []string{c},
		Rhs:      []func(Env) seq.Seq{func(env Env) seq.Seq { return h.Apply(env[c]) }},
	}
	fix, err := eq.Solve(maxSteps, 0)
	if err != nil {
		return err
	}
	if !fix.Converged {
		return fmt.Errorf("kahn: %s did not converge in %d steps", eq.Name, maxSteps)
	}
	lfp := fix.Env[c]
	if lfp.Len() > depth {
		return fmt.Errorf("kahn: lfp %s longer than probe depth %d", lfp, depth)
	}
	p := solver.NewProblem(IdentityDescription(c, h), map[string][]value.Value{c: alphabet}, depth)
	res := solver.Enumerate(ctx, p)
	if res.Solutions.Len() != 1 {
		return fmt.Errorf("kahn: Theorem 4 fails: %d smooth solutions of id ⟵ %s, want exactly 1 (keys %v)",
			res.Solutions.Len(), h.Name, res.SolutionKeys())
	}
	got := res.Solutions.At(0).Channel(c)
	if !got.Equal(lfp) {
		return fmt.Errorf("kahn: Theorem 4 fails: smooth solution %s ≠ lfp %s", got, lfp)
	}
	return nil
}

// MultiIdentityDescription builds the trace-level description id ⟵ h
// for a whole equation system: the left side is the tuple of channel
// functions and the right side applies each equation to the environment
// read off the trace.
func MultiIdentityDescription(eq Equations) desc.Description {
	fs := make([]fn.TraceFn, len(eq.Channels))
	gs := make([]fn.TraceFn, len(eq.Channels))
	support := trace.NewChanSet(eq.Channels...)
	for i, c := range eq.Channels {
		fs[i] = fn.ChanFn(c)
		rhs := eq.Rhs[i]
		gs[i] = fn.TraceFn{
			Name:    c + "=" + eq.Name,
			Out:     1,
			Support: support,
			Growth:  fn.OmegaPad - 1, // conservative bound for arbitrary equations
			Apply: func(t trace.Trace) fn.Tuple {
				env := make(Env, len(eq.Channels))
				for _, ch := range eq.Channels {
					env[ch] = t.Channel(ch)
				}
				return fn.Tuple{rhs(env)}
			},
		}
	}
	return desc.Description{
		Name: "id ⟵ " + eq.Name,
		F:    fn.Pair(fs...),
		G:    fn.Pair(gs...),
	}
}

// CheckTheorem4Multi verifies Theorem 4 for a multi-channel system whose
// least fixpoint is finite. Theorem 4's uniqueness is stated in the cpo
// the solution lives in — for a system of equations that is the cpo of
// channel environments, where event interleaving does not exist. In the
// trace cpo the smooth solutions of id ⟵ h are therefore unique only up
// to interleaving: the check requires at least one solution and that
// EVERY solution reads back as exactly the Kleene least-fixpoint
// environment. (For single-channel systems the two statements coincide;
// see CheckTheorem4Trace.)
func CheckTheorem4Multi(ctx context.Context, eq Equations, alphabet map[string][]value.Value, maxSteps, depth int) error {
	fix, err := eq.Solve(maxSteps, 0)
	if err != nil {
		return err
	}
	if !fix.Converged {
		return fmt.Errorf("kahn: %s did not converge in %d steps", eq.Name, maxSteps)
	}
	p := solver.NewProblem(MultiIdentityDescription(eq), alphabet, depth)
	res := solver.Enumerate(ctx, p)
	if res.Solutions.Len() == 0 {
		return fmt.Errorf("kahn: Theorem 4 (multi) fails: no smooth solution of id ⟵ %s found", eq.Name)
	}
	for _, sol := range res.Solutions.Traces() {
		for _, c := range eq.Channels {
			if got := sol.Channel(c); !got.Equal(fix.Env[c]) {
				return fmt.Errorf("kahn: Theorem 4 (multi) fails: solution %s has %s = %s ≠ lfp %s",
					sol, c, got, fix.Env[c])
			}
		}
	}
	return nil
}

// TwoCopyEquations is Figure 1's network: c = b, b = c. Its least
// fixpoint is the pair of empty sequences.
func TwoCopyEquations() Equations {
	return Equations{
		Name:     "fig1",
		Channels: []string{"b", "c"},
		Rhs: []func(Env) seq.Seq{
			func(env Env) seq.Seq { return env["c"] }, // b = c
			func(env Env) seq.Seq { return env["b"] }, // c = b
		},
	}
}

// SeededCopyEquations is Figure 1's variant: c = b, b = 0;c, whose least
// fixpoint is b = c = 0^ω. Solve with a length cap to see the growing
// approximations.
func SeededCopyEquations() Equations {
	prepend0 := fn.PrependFn(value.Int(0))
	return Equations{
		Name:     "fig1-seeded",
		Channels: []string{"b", "c"},
		Rhs: []func(Env) seq.Seq{
			func(env Env) seq.Seq { return prepend0.Apply(env["c"]) }, // b = 0;c
			func(env Env) seq.Seq { return env["b"] },                 // c = b
		},
	}
}

// TraceOfEnv linearises an environment into a trace, channel by channel
// in the given order; useful for feeding Kahn results to trace-level
// checkers where event interleaving is irrelevant (all functions factor
// through per-channel histories).
func TraceOfEnv(env Env, channels []string) trace.Trace {
	t := trace.Empty
	for _, c := range channels {
		for _, v := range env[c] {
			t = t.Append(trace.E(c, v))
		}
	}
	return t
}
