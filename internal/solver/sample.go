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
// Canceled and returns what the walks found so far.
func Sample(ctx context.Context, p Problem, opts SampleOpts) SampleResult {
	opts = opts.withDefaults(p)
	s := newSearch(p)
	res := SampleResult{Solutions: map[string]trace.Trace{}}
	s.st = &res.Stats
	s.countBase(s.st)
	rng := rand.New(rand.NewSource(opts.Seed))
	start := time.Now()
walks:
	for w := 0; w < opts.Walks; w++ {
		cur := s.rootNode()
		for depth := 0; ; depth++ {
			if ctx.Err() != nil {
				res.Canceled = true
				break walks
			}
			gu, ok, below := s.limit(cur)
			if ok {
				res.Solutions[cur.t.String()] = cur.t
			}
			if depth >= opts.MaxDepth {
				break
			}
			sons := s.expand(cur.t, gu, below, s.sonBuf[:0])
			if len(sons) == 0 {
				break
			}
			cur = sons[rng.Intn(len(sons))]
			res.Steps++
			if cur.t.Len() > res.Deepest.Len() {
				res.Deepest = cur.t
			}
		}
	}
	res.Stats.CompiledEval = s.fsess != nil && s.gsess != nil
	res.Stats.Elapsed = time.Since(start)
	return res
}
