package desc

import (
	"fmt"

	"smoothproc/internal/fn"
	"smoothproc/internal/trace"
)

// System is a finite set of descriptions understood conjunctively — the
// usual presentation of a network before variables are eliminated
// (Sections 2.3, 4.10, 7).
type System struct {
	Name  string
	Descs []Description
}

// Combined merges the system into a single description by pairing.
func (s System) Combined() Description {
	return Combine(s.Name, s.Descs...)
}

// Eliminability checks, for one system, the side conditions of
// Theorems 5 and 6 for eliminating channel b using its defining
// description b ⟵ h:
//
//	(1) h and every remaining left side f are independent of b,
//	(2) every remaining right side g factors through (t_b, t_c) — true by
//	    construction for all TraceFns in this repository, which read only
//	    per-channel histories,
//	(3) f(⊥) = ⊥ for every remaining left side.
//
// Condition (3) is the one the paper reports discovering during the
// construction in Theorem 6's proof; the counterexample requiring it
// (b ⟵ f, f ⟵ b) is reproduced in the package tests.
//
// Check(idx, b) is nil exactly when Eliminate(s, idx, b) succeeds, and
// otherwise Eliminate's error, without building the reduced system.
// Each left side is applied at ⊥ at most once, however many verdicts
// read it, so only one goroutine may use an Eliminability at a time.
type Eliminability struct {
	s System
	// bottom caches condition (3) per description: 0 not yet applied,
	// 1 f(⊥) = ⊥, -1 not.
	bottom []int8
}

// NewEliminability returns the verdicts of s's eliminations.
func NewEliminability(s System) *Eliminability {
	return &Eliminability{s: s, bottom: make([]int8, len(s.Descs))}
}

// Check returns nil when channel b is eliminable through the
// description at idx, and the side condition that blocks it otherwise.
func (e *Eliminability) Check(idx int, b string) error {
	s := e.s
	if idx < 0 || idx >= len(s.Descs) {
		return fmt.Errorf("desc: index %d out of range for system %s", idx, s.Name)
	}
	defining := s.Descs[idx]
	if defining.F.Out != 1 {
		return fmt.Errorf("desc: defining description for %s must be single-channel, got width %d", b, defining.F.Out)
	}
	fSup := defining.F.Support.Names()
	if len(fSup) != 1 || fSup[0] != b || defining.F.Name != b {
		return fmt.Errorf("desc: left side %q of the defining description must be exactly the channel function %s", defining.F.Name, b)
	}
	if !defining.G.IndependentOf(b) {
		return fmt.Errorf("desc: condition (1) fails: h = %s mentions %s", defining.G.Name, b)
	}
	for i, d := range s.Descs {
		if i == idx {
			continue
		}
		if !d.F.IndependentOf(b) {
			return fmt.Errorf("desc: condition (1) fails: left side %s mentions %s", d.F.Name, b)
		}
		if e.bottom[i] == 0 {
			e.bottom[i] = -1
			if d.F.Apply(trace.Empty).Equal(fn.BottomTuple(d.F.Out)) {
				e.bottom[i] = 1
			}
		}
		if e.bottom[i] < 0 {
			return fmt.Errorf("desc: condition (3) fails: %s(⊥) ≠ ⊥", d.F.Name)
		}
	}
	return nil
}

// Eliminate removes channel b from the system. The description at index
// idx must be the defining one, b ⟵ h, with left side exactly the channel
// function b (the paper's surjectivity note admits more general left
// sides; we implement the b ⟵ h case the paper's theorems state). Every
// other description f ⟵ g becomes f ⟵ g[b := h].
//
// By Theorems 5 and 6, the transformation preserves smooth solutions up
// to projection: t solves the original iff t_c solves the result, for
// t ranging over traces with some b-history (Theorem 5) and conversely
// every solution of the result extends to one of the original
// (Theorem 6). The conformance tests check both directions by enumeration.
func Eliminate(s System, idx int, b string) (System, error) {
	if err := NewEliminability(s).Check(idx, b); err != nil {
		return System{}, err
	}
	defining := s.Descs[idx]
	out := System{Name: s.Name + " \\ " + b}
	for i, d := range s.Descs {
		if i == idx {
			continue
		}
		nd := d
		if !d.G.IndependentOf(b) {
			nd = Description{
				Name: d.Name,
				F:    d.F,
				G:    fn.SubstChan(d.G, b, defining.G),
			}
		}
		out.Descs = append(out.Descs, nd)
	}
	return out, nil
}

// CheckTheorem5 verifies Theorem 5 on a concrete trace: if t is a smooth
// solution of the original system then t projected away from b is a
// smooth solution of the eliminated system. A failure indicates a bug.
func CheckTheorem5(orig System, idx int, b string, t trace.Trace) error {
	elim, err := Eliminate(orig, idx, b)
	if err != nil {
		return err
	}
	if err := orig.Combined().IsSmoothFinite(t); err != nil {
		return fmt.Errorf("desc: Theorem 5 hypothesis fails: %w", err)
	}
	keep := trace.NewChanSet(t.Channels()...).Without(b)
	tc := t.Project(keep)
	if err := elim.Combined().IsSmoothFinite(tc); err != nil {
		return fmt.Errorf("desc: Theorem 5 conclusion fails on %s: %w", tc, err)
	}
	return nil
}

// Theorem6Witness performs the explicit construction in Theorem 6's
// proof: from a smooth solution s of the eliminated system (with no
// b-events), build the alternating chain
//
//	t_b^{2i+1} = h(s^i), t_c^{2i+1} = s^i
//	t_b^{2i+2} = h(s^i), t_c^{2i+2} = s^{i+1}
//
// and return its lub t, a smooth solution of the original system with
// t_c = s. The returned trace interleaves b-events and c-events exactly
// as the construction dictates.
func Theorem6Witness(orig System, idx int, b string, s trace.Trace) (trace.Trace, error) {
	defining := orig.Descs[idx]
	elim, err := Eliminate(orig, idx, b)
	if err != nil {
		return trace.Empty, err
	}
	for _, e := range s.Events() {
		if e.Ch == b {
			return trace.Empty, fmt.Errorf("desc: Theorem 6 input mentions eliminated channel %s", b)
		}
	}
	if err := elim.Combined().IsSmoothFinite(s); err != nil {
		return trace.Empty, fmt.Errorf("desc: Theorem 6 hypothesis fails: %w", err)
	}
	h := defining.G
	t := trace.Empty
	bLen := 0 // number of b-events already in t
	for i := 0; i <= s.Len(); i++ {
		// Step 2i+1: extend with b-events so that t_b = h(s^i).
		hv := h.Apply(s.Take(i))[0]
		for ; bLen < hv.Len(); bLen++ {
			t = t.Append(trace.E(b, hv.At(bLen)))
		}
		// Step 2i+2: extend with the next c-event so that t_c = s^{i+1}.
		if i < s.Len() {
			t = t.Append(s.At(i))
		}
	}
	if err := orig.Combined().IsSmoothFinite(t); err != nil {
		return trace.Empty, fmt.Errorf("desc: Theorem 6 construction yielded a non-smooth trace %s: %w", t, err)
	}
	return t, nil
}
