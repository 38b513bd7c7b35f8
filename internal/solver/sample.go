package solver

import (
	"context"
	"math/rand"
	"time"

	"smoothproc/internal/trace"
)

// SampleOpts configures the random-walk sampler.
type SampleOpts struct {
	// Seed drives the walk; equal seeds give equal samples.
	Seed int64
	// Walks is the number of random walks (default 32).
	Walks int
	// MaxDepth bounds each walk (default: the problem's MaxDepth).
	MaxDepth int
}

func (o SampleOpts) withDefaults(p Problem) SampleOpts {
	if o.Walks == 0 {
		o.Walks = 32
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = p.MaxDepth
	}
	return o
}

// SampleResult reports what the walks found.
type SampleResult struct {
	// Solutions are the distinct smooth solutions hit, keyed canonically.
	Solutions map[string]trace.Trace
	// Deepest is the longest tree node reached.
	Deepest trace.Trace
	// Steps is the total number of edges taken.
	Steps int
	// Stats instruments the walks. Walks revisit shared prefixes
	// constantly and keep no memo, so a prefix two walks take is
	// evaluated once per walk: hits are the values a walk carries down
	// its own edges, as in Enumerate, and f(⊥) and g(⊥) when the Theorem
	// 1 induction-base check computed them — counted as applied once,
	// read as a hit at every walk's root. Node-role counters stay zero
	// (walks classify no nodes), while limit-check, edge and evaluation
	// counters are live.
	Stats SearchStats
	// Canceled reports that the context stopped the walks early; the
	// solutions gathered so far are still sound.
	Canceled bool
}

// Sample explores the Section 3.3 tree by random walks instead of
// exhaustive BFS — the tool for problems whose full tree is too wide to
// enumerate (wide alphabets, long probes). Each walk starts at ⊥,
// repeatedly picks a uniformly random smooth son, records every node
// that satisfies the limit condition, and stops at a leaf or the depth
// bound. Sampling is sound (everything returned is a smooth solution)
// but deliberately incomplete; use Enumerate when the bounds allow. The
// context is checked at every step of every walk; cancellation sets
// Canceled and returns what the walks found so far. Each walk grows a
// tree of its own, so only the walk in progress keeps the sons it
// admitted, and a trace is built only for a solution first found and
// for a walk that went deeper than every walk before it.
func Sample(ctx context.Context, p Problem, opts SampleOpts) SampleResult {
	opts = opts.withDefaults(p)
	s := newSearch(p)
	res := SampleResult{Solutions: map[string]trace.Trace{}}
	s.st = &res.Stats
	s.countBase(s.st)
	rng := rand.New(rand.NewSource(opts.Seed))
	start := time.Now()
	var sons queue
	var key []byte
	done := ctx.Done()
	for w := 0; w < opts.Walks && !res.Canceled; w++ {
		if w > 0 {
			s.tree = trace.NewTree(s.tree.Alphabet())
			if s.spines != nil {
				s.spines = s.spines[:1]
			}
		}
		cur, f := trace.Root, s.f0
		for depth := 0; ; depth++ {
			if stopped(done) {
				res.Canceled = true
				break
			}
			gu, ok, below := s.limit(cur, f)
			if ok {
				key = s.tree.AppendString(key[:0], cur)
				if _, seen := res.Solutions[string(key)]; !seen {
					res.Solutions[string(key)] = s.trace(cur)
				}
			}
			if depth >= opts.MaxDepth {
				break
			}
			n := s.expand(cur, gu, below, &sons)
			if n == 0 {
				break
			}
			// The walk goes on at a uniformly random son; the others are
			// dropped with the walk's tree.
			for k := rng.Intn(n); k > 0; k-- {
				s.pop(&sons)
			}
			cur, f = s.pop(&sons)
			sons.reset()
			res.Steps++
		}
		// A walk's last node is its deepest.
		if s.tree.Len(cur) > res.Deepest.Len() {
			res.Deepest = s.trace(cur)
		}
	}
	res.Stats.CompiledEval = s.fsess != nil && s.gsess != nil
	res.Stats.Elapsed = time.Since(start)
	return res
}
