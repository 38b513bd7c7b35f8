package session

import (
	"context"
	"fmt"

	"smoothproc/internal/desc"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// DeltaCheckReport accounts a delta-solve differential check: how the
// fresh solutions of the eliminated system line up with the projected
// session solutions.
type DeltaCheckReport struct {
	// FreshNodes is the node count of the fresh solve — the work the
	// delta-solve avoided.
	FreshNodes int
	// Matched counts fresh solutions equal to a projected session
	// solution (the Theorem 5 image).
	Matched int
	// BeyondHorizon counts fresh solutions whose Theorem 6 witness is
	// longer than the session's depth bound: real solutions of the
	// eliminated system whose originals lie beyond the session's horizon,
	// the one legitimate way projected ⊊ fresh.
	BeyondHorizon int
}

// DeltaCheck is the differential guard on Delta: it solves the
// eliminated system fresh at the session's depth and verifies that
// checkpoint and result reuse cannot have changed Solutions —
//
//   - Theorem 5 direction: every projected session solution is a fresh
//     solution of the eliminated system;
//   - Theorem 6 direction: every fresh solution not in the projection
//     lifts, by the theorem's explicit chain construction, to a smooth
//     solution of the original system that is longer than the session's
//     depth bound (witnesses within the bound would mean the session
//     missed a solution).
//
// Any violation is returned as an error; a nil error certifies the
// delta-solve's Solutions against the from-scratch answer.
func (s *Session) DeltaCheck(ctx context.Context, d DeltaResult) (DeltaCheckReport, error) {
	s.mu.Lock()
	if s.cp == nil {
		s.mu.Unlock()
		return DeltaCheckReport{}, fmt.Errorf("session: delta check before the first solve")
	}
	depth := s.cp.MaxDepth()
	base := s.p
	orig := s.sys
	s.mu.Unlock()

	alph := make(map[string][]value.Value, len(base.Alphabet))
	for c, vs := range base.Alphabet {
		if c != d.Channel {
			alph[c] = vs
		}
	}
	fp := solver.NewProblem(d.System.Combined(), alph, depth)
	fp.Compiled = base.Compiled
	fp.CollectVisited = false

	fresh := solver.Enumerate(ctx, fp)
	if fresh.Truncated {
		return DeltaCheckReport{}, fmt.Errorf("session: fresh solve of %s was truncated; delta check needs a complete reference", d.System.Name)
	}

	freshByKey := bucket(fresh.Solutions)
	projByKey := bucket(d.Solutions)
	rep := DeltaCheckReport{FreshNodes: fresh.Nodes}

	for _, p := range d.Solutions {
		if !member(freshByKey, p) {
			return rep, fmt.Errorf("session: Theorem 5 violation: projected solution %s is not a solution of the eliminated system %s", p, d.System.Name)
		}
	}
	for _, sc := range fresh.Solutions {
		if member(projByKey, sc) {
			rep.Matched++
			continue
		}
		w, err := desc.Theorem6Witness(orig, d.Index, d.Channel, sc)
		if err != nil {
			return rep, fmt.Errorf("session: fresh solution %s of %s does not lift (Theorem 6): %w", sc, d.System.Name, err)
		}
		if w.Len() <= depth {
			return rep, fmt.Errorf("session: fresh solution %s lifts to %s within the session depth %d, yet the session's projection misses it — the delta reuse is unsound", sc, w, depth)
		}
		rep.BeyondHorizon++
	}
	return rep, nil
}

// bucket indexes traces by Key with Equal-confirmed candidate sets.
func bucket(ts []trace.Trace) map[trace.Key][]trace.Trace {
	m := make(map[trace.Key][]trace.Trace, len(ts))
	for _, t := range ts {
		m[t.Key()] = append(m[t.Key()], t)
	}
	return m
}

func member(m map[trace.Key][]trace.Trace, t trace.Trace) bool {
	for _, c := range m[t.Key()] {
		if c.Equal(t) {
			return true
		}
	}
	return false
}
