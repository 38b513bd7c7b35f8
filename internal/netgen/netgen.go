// Package netgen generates random small networks together with their
// descriptions, for property-based testing of the paper's central
// correspondence. Each generated network pairs an operational spec
// (feeders, deterministic stages, a discriminated merge, optionally an
// oracle fork) with the description system those constructors are
// *defined* to satisfy; the conformance harness then checks that the
// operational quiescent traces and the description's smooth solutions
// coincide. A disagreement on any seed is a bug in one of the engines —
// this is the randomized amplification of the hand-written Figure tests.
package netgen

import (
	"fmt"
	"math/rand"

	"smoothproc/internal/check"
	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/netsim"
	"smoothproc/internal/procs"
	"smoothproc/internal/seq"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// Config bounds the generated networks. The defaults keep the total
// event count near 10, because the conformance check enumerates BOTH the
// full interleaving space operationally and the full smooth tree
// denotationally — the comparison is exhaustive, so the instances must
// stay small (the number of causal interleavings grows factorially).
type Config struct {
	// MaxFeedLen bounds each feeder's supply (default 1).
	MaxFeedLen int
	// MaxStages bounds the deterministic stages appended after the
	// merge (default 2).
	MaxStages int
	// NoFork excludes the oracle fork final stage, whose auxiliary
	// channel (§8.2) otherwise exercises the projection path.
	NoFork bool
	// MaxTotalEvents caps the network's total stream length; stages and
	// forks that would exceed it are dropped (default 8, pinned by
	// TestConfigDefaults so the comment and code cannot drift apart).
	MaxTotalEvents int
}

func (c Config) withDefaults() Config {
	if c.MaxFeedLen == 0 {
		c.MaxFeedLen = 1
	}
	if c.MaxStages == 0 {
		c.MaxStages = 2
	}
	if c.MaxTotalEvents == 0 {
		c.MaxTotalEvents = 8
	}
	return c
}

// Generated is one random network with everything the conformance
// harness needs.
type Generated struct {
	// Conf is ready to check.
	Conf check.Conformance
	// Shape describes the generated topology for failure messages.
	Shape string
}

// stageKind enumerates the deterministic stage constructors.
type stageKind int

const (
	stageCopy stageKind = iota
	stageDouble
	stageLinear
	stagePrepend
)

// Generate builds the network for a seed. The topology is always
//
//	feederB (evens) ─┐
//	                 dfm ── stage₁ ── ... ── stageₖ [── fork]
//	feederC (odds)  ─┘
//
// with random feed contents, stage kinds and parameters. Parities of the
// two feeds are disjoint by construction, which is what makes the
// discriminated merge describable (Section 2.2).
func Generate(seed int64, cfg Config) (Generated, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))

	// Feeds: evens on b, odds on c.
	feedB := randomFeed(rng, cfg.MaxFeedLen, 0)
	feedC := randomFeed(rng, cfg.MaxFeedLen, 1)

	specProcs := []netsim.Proc{
		netsim.Feeder("feedB", "b", feedB...),
		netsim.Feeder("feedC", "c", feedC...),
	}
	components := []desc.Component{
		procs.ConstFeeder("feedB", "b", feedB...).Comp,
		procs.ConstFeeder("feedC", "c", feedC...).Comp,
	}
	merge := procs.DFM("dfm", "b", "c", "d0")
	specProcs = append(specProcs, merge.Proc)
	components = append(components, merge.Comp)

	// Alphabets are propagated exactly: each channel's possible values.
	alphabet := map[string][]value.Value{
		"b":  dedup(feedB),
		"c":  dedup(feedC),
		"d0": dedup(append(append([]value.Value(nil), feedB...), feedC...)),
	}
	// Event budget: each channel's maximal stream length.
	total := len(feedB) + len(feedC) + len(feedB) + len(feedC)

	cur := "d0"
	curLen := len(feedB) + len(feedC)
	shape := fmt.Sprintf("feeds(%d,%d) dfm", len(feedB), len(feedC))

	nStages := rng.Intn(cfg.MaxStages + 1)
	var aux []string
	forked := false
	for i := 0; i < nStages; i++ {
		kind := stageKind(rng.Intn(4))
		growth := 0
		if kind == stagePrepend {
			growth = 1
		}
		if total+curLen+growth > cfg.MaxTotalEvents {
			break // keep the instance exhaustively checkable
		}
		next := fmt.Sprintf("d%d", i+1)
		entry, outVals, err := buildStage(fmt.Sprintf("stage%d", i+1), kind, rng, cur, next, alphabet[cur])
		if err != nil {
			return Generated{}, fmt.Errorf("netgen: seed %d (%s): %w", seed, shape, err)
		}
		specProcs = append(specProcs, entry.Proc)
		components = append(components, entry.Comp)
		alphabet[next] = outVals
		curLen += growth
		total += curLen
		cur = next
		shape += " " + entry.Comp.Name
	}

	// Optionally end with a fork (auxiliary oracle channel). The oracle
	// events are invisible operationally but count toward the solver's
	// depth: a smooth solution with k routed items carries k extra
	// (fork.b, bit) events.
	auxEvents := 0
	if !cfg.NoFork && rng.Intn(3) == 0 && total+curLen <= cfg.MaxTotalEvents {
		fork := procs.Fork("fork", cur, cur+".L", cur+".R")
		specProcs = append(specProcs, fork.Proc)
		components = append(components, fork.Comp)
		alphabet[cur+".L"] = alphabet[cur]
		alphabet[cur+".R"] = alphabet[cur]
		alphabet["fork.b"] = []value.Value{value.T, value.F}
		aux = append(aux, "fork.b")
		total += curLen    // the routed copies
		auxEvents = curLen // one oracle bit per routed item
		shape += " fork"
		forked = true
	}

	net := desc.Network{Name: fmt.Sprintf("gen-%d", seed), Components: components}
	d, err := desc.Compose(net)
	if err != nil {
		// Report the seed and shape instead of panicking: in a corpus run
		// over many thousands of seeds one bad instance must surface as a
		// diagnosable error, not kill the whole job.
		return Generated{}, fmt.Errorf("netgen: seed %d (%s): generated network violates dc: %w", seed, shape, err)
	}

	visible := trace.ChanSet(nil)
	if forked {
		all := trace.ChanSet{}
		for ch := range alphabet {
			all[ch] = true
		}
		visible = all.Without(aux...)
	}

	return Generated{
		Conf: check.Conformance{
			Name:         net.Name,
			Spec:         netsim.Spec{Name: net.Name, Procs: specProcs},
			Problem:      solver.NewProblem(d, alphabet, total+auxEvents),
			Visible:      visible,
			LenCap:       total,
			MaxDecisions: 4 * total,
		},
		Shape: shape,
	}, nil
}

// MustGenerate is Generate for callers that treat a bad seed as a test
// bug (the in-package property tests over fixed seed ranges).
func MustGenerate(seed int64, cfg Config) Generated {
	g, err := Generate(seed, cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// randomFeed picks 1..max values with the given parity (0 even, 1 odd).
func randomFeed(rng *rand.Rand, max int, parity int64) []value.Value {
	n := 1 + rng.Intn(max)
	out := make([]value.Value, n)
	for i := range out {
		out[i] = value.Int(2*int64(rng.Intn(3)) + parity)
	}
	return out
}

// buildStage constructs a deterministic stage and the exact image
// alphabet of its output channel.
func buildStage(name string, kind stageKind, rng *rand.Rand, in, out string, inVals []value.Value) (procs.Entry, []value.Value, error) {
	switch kind {
	case stageDouble:
		return mapStage(name+"-double", in, out, fn.Double, inVals)
	case stageLinear:
		a, b := int64(rng.Intn(2)+1), int64(rng.Intn(3))
		return mapStage(fmt.Sprintf("%s-lin%d_%d", name, a, b), in, out, fn.MulAdd(a, b), inVals)
	case stagePrepend:
		k := value.Int(int64(rng.Intn(3) + 10))
		sf := fn.PrependFn(k)
		entry := procs.Entry{
			Proc: netsim.Proc{Name: name + "-prep", Body: func(c *netsim.Ctx) {
				if !c.Send(out, k) {
					return
				}
				copyLoop(c, in, out)
			}},
			Comp: desc.Component{
				Name:     name + "-prep",
				Incident: trace.NewChanSet(in, out),
				D:        desc.MustNew(name, fn.ChanFn(out), fn.OnChan(sf, in)),
			},
		}
		return entry, dedup(append([]value.Value{k}, inVals...)), nil
	default:
		return mapStage(name+"-copy", in, out, fn.Identity, inVals)
	}
}

// mapStage is a deterministic pointwise stage for a SeqFn that is a map.
// The map property is validated at construction time over the declared
// input alphabet, so a non-map function is a reported error with the
// offending stage name — not a panic out of a process body mid-run.
func mapStage(name, in, out string, sf fn.SeqFn, inVals []value.Value) (procs.Entry, []value.Value, error) {
	for _, v := range inVals {
		if sf.Apply(seq.Of(v)).Len() != 1 {
			return procs.Entry{}, nil, fmt.Errorf("stage %s: %s is not a map on input %s", name, sf.Name, v)
		}
	}
	entry := procs.Entry{
		Proc: netsim.Proc{Name: name, Body: func(c *netsim.Ctx) {
			for {
				v, ok := c.Recv(in)
				if !ok {
					return
				}
				if !c.Send(out, sf.Apply(seq.Of(v)).At(0)) {
					return
				}
			}
		}},
		Comp: desc.Component{
			Name:     name,
			Incident: trace.NewChanSet(in, out),
			D:        desc.MustNew(name, fn.ChanFn(out), fn.OnChan(sf, in)),
		},
	}
	image := sf.Apply(seq.Of(inVals...))
	return entry, dedup(image), nil
}

func copyLoop(c *netsim.Ctx, in, out string) {
	for {
		v, ok := c.Recv(in)
		if !ok {
			return
		}
		if !c.Send(out, v) {
			return
		}
	}
}

// dedup removes duplicate values, keeping the first occurrence of each
// and preserving first-seen order. Values are bucketed by Hash64 with an
// Equal fallback inside each bucket, so wide generated alphabets dedup
// in O(n) instead of the old O(n²) pairwise scan.
func dedup(vals []value.Value) []value.Value {
	var out []value.Value
	buckets := make(map[uint64][]value.Value, len(vals))
next:
	for _, v := range vals {
		h := v.Hash64()
		for _, w := range buckets[h] {
			if v.Equal(w) {
				continue next
			}
		}
		buckets[h] = append(buckets[h], v)
		out = append(out, v)
	}
	return out
}
