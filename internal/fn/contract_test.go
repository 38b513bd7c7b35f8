package fn

import (
	"fmt"

	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
)

// The contract checkers the package tests hold every constructor to:
// monotonicity, chain-continuity, declared support and growth bound.

// CheckTraceFnMonotone verifies f(u) ⊑ f(v) along the prefix chain of
// every sample trace (u ranging over all prefixes of v). Prefix chains
// are the only ascending chains that matter in the trace cpo.
func CheckTraceFnMonotone(f TraceFn, samples []trace.Trace) error {
	for _, t := range samples {
		whole := f.Apply(t)
		prev := f.Apply(trace.Empty)
		if len(prev) != f.Out {
			return fmt.Errorf("fn: %s declares Out=%d but returned width %d", f.Name, f.Out, len(prev))
		}
		for n := 1; n <= t.Len(); n++ {
			cur := f.Apply(t.Take(n))
			if !prev.Leq(cur) {
				return fmt.Errorf("fn: %s not monotone on prefixes of %s at length %d", f.Name, t, n)
			}
			prev = cur
		}
		if !prev.Equal(whole) {
			return fmt.Errorf("fn: %s: chain lub mismatch on %s", f.Name, t)
		}
	}
	return nil
}

// CheckTraceFnSupport verifies the declared support: f(t) must equal
// f(t.Project(Support)) on every sample. For ω-approximations (Omega
// set) the projection legitimately shortens the approximation, so only
// compatibility f(t↾Support) ⊑ f(t) is required.
func CheckTraceFnSupport(f TraceFn, samples []trace.Trace) error {
	for _, t := range samples {
		whole, onSupport := f.Apply(t), f.Apply(t.Project(f.Support))
		if f.Omega {
			if !onSupport.Leq(whole) {
				return fmt.Errorf("fn: %s (ω) output on support projection of %s is not an approximation of the full output", f.Name, t)
			}
			continue
		}
		if !whole.Equal(onSupport) {
			return fmt.Errorf("fn: %s reads outside its declared support %v on %s", f.Name, f.Support.Names(), t)
		}
	}
	return nil
}

// CheckTraceFnGrowth verifies the declared growth bound on the samples.
func CheckTraceFnGrowth(f TraceFn, samples []trace.Trace) error {
	for _, t := range samples {
		if err := CheckOutputGrowth(f, t.Len(), f.Apply(t), t.String); err != nil {
			return err
		}
	}
	return nil
}

// CheckSeqFnMonotone verifies f(x) ⊑ f(y) on every ordered pair of
// samples, and additionally on every (prefix, whole) pair drawn from the
// samples themselves.
func CheckSeqFnMonotone(f SeqFn, samples []seq.Seq) error {
	all := make([]seq.Seq, 0, len(samples)*3)
	for _, s := range samples {
		all = append(all, s)
		all = append(all, s.Take(s.Len()/2))
	}
	for i, x := range all {
		for j, y := range all {
			if !x.Leq(y) {
				continue
			}
			if !f.Apply(x).Leq(f.Apply(y)) {
				return fmt.Errorf("fn: %s not monotone: f(%s) ⋢ f(%s) (samples %d,%d)", f.Name, x, y, i, j)
			}
		}
	}
	return nil
}

// CheckSeqFnChain verifies that f maps the full prefix chain of s to a
// chain whose lub is f(s) — the finitary continuity check of Fact F2/F3
// style. Monotonicity makes this automatic for finite inputs, so a
// failure indicates a genuinely broken function.
func CheckSeqFnChain(f SeqFn, s seq.Seq) error {
	var prev seq.Seq
	for n := 0; n <= s.Len(); n++ {
		cur := f.Apply(s.Take(n))
		if n > 0 && !prev.Leq(cur) {
			return fmt.Errorf("fn: %s image of prefix chain of %s not a chain at %d", f.Name, s, n)
		}
		prev = cur
	}
	if !prev.Equal(f.Apply(s)) {
		return fmt.Errorf("fn: %s: lub of image ≠ image of lub for %s", f.Name, s)
	}
	return nil
}

// CheckSeqFnGrowth verifies the declared Growth bound on the samples.
func CheckSeqFnGrowth(f SeqFn, samples []seq.Seq) error {
	for _, s := range samples {
		if out := f.Apply(s); out.Len() > s.Len()+f.Growth {
			return fmt.Errorf("fn: %s growth bound %d violated: |f(%s)| = %d", f.Name, f.Growth, s, out.Len())
		}
	}
	return nil
}

// CheckBiSeqFnMonotone verifies monotonicity of a BiSeqFn in both
// arguments over the sample cross product.
func CheckBiSeqFnMonotone(f BiSeqFn, samples []seq.Seq) error {
	for _, a := range samples {
		for _, b := range samples {
			whole := f.Apply(a, b)
			for n := 0; n <= a.Len(); n++ {
				if !f.Apply(a.Take(n), b).Leq(whole) {
					return fmt.Errorf("fn: %s not monotone in arg 1 at (%s, %s)", f.Name, a, b)
				}
			}
			for n := 0; n <= b.Len(); n++ {
				if !f.Apply(a, b.Take(n)).Leq(whole) {
					return fmt.Errorf("fn: %s not monotone in arg 2 at (%s, %s)", f.Name, a, b)
				}
			}
		}
	}
	return nil
}
