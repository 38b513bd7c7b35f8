package netgen

import (
	"fmt"
	"math/rand"

	"smoothproc/internal/check"
	"smoothproc/internal/fn"
	"smoothproc/internal/netsim"
	"smoothproc/internal/procs"
	"smoothproc/internal/value"
)

// This file holds the corpus topology grammar: one builder per family.
// Every builder writes the same two synchronized artefacts into a genNet
// — eqlang desc statements and netsim processes — so the emitted .eq
// source and the operational network are generated from one random walk
// and can be cross-checked solver⇔netsim afterwards.
//
// Family sizes are calibrated for the exhaustive conformance modes: the
// quiescent check enumerates every causal interleaving on both sides, so
// check-tier instances stay under ~12 total events. Scale comes from the
// stress tier (stress.go), which trades exhaustive checking for depth.

// checkBudget is the per-instance cap on total stream length for
// check-tier families.
const checkBudget = 10

// stage appends one deterministic stage reading in and writing out,
// picked at random from copy / linear / prepend, emitting the matching
// desc statement. Returns the out channel's exact image alphabet and the
// stage's stream growth (1 for prepend, else 0).
func (g *genNet) stage(rng *rand.Rand, name, in, out string, inVals []value.Value) ([]value.Value, int) {
	switch rng.Intn(3) {
	case 0: // copy
		g.desc("%s <- %s", out, in)
		g.note("copy")
		g.proc(netsim.Proc{Name: name + "-copy", Body: func(c *netsim.Ctx) { copyLoop(c, in, out) }})
		return g.channel(out, inVals...), 0
	case 1: // pointwise linear a*x + b
		a, b := int64(rng.Intn(2)+1), int64(rng.Intn(3))
		g.desc("%s <- %d*%s + %d", out, a, in, b)
		g.note("lin%d_%d", a, b)
		sf := fn.MulAdd(a, b)
		entry, outVals, _ := mapStage(name+"-lin", in, out, sf, inVals)
		g.proc(entry.Proc)
		return g.channel(out, outVals...), 0
	default: // prepend a constant
		k := value.Int(int64(rng.Intn(3) + 10))
		g.desc("%s <- %s ; %s", out, seqLit(k), in)
		g.note("prep%s", k)
		g.proc(netsim.Proc{Name: name + "-prep", Body: func(c *netsim.Ctx) {
			if !c.Send(out, k) {
				return
			}
			copyLoop(c, in, out)
		}})
		return g.channel(out, append([]value.Value{k}, inVals...)...), 1
	}
}

// buildDFM is two disjoint-parity feeders into the Section 2.2
// discriminated fair merge, then a random chain of deterministic stages.
func buildDFM(rng *rand.Rand, g *genNet) error {
	feedB := evens(rng, 1+rng.Intn(2))
	feedC := odds(rng, 1+rng.Intn(2))
	g.note("feeds(%d,%d)", len(feedB), len(feedC))

	g.channel("b", feedB...)
	g.channel("c", feedC...)
	g.channel("d0", append(append([]value.Value(nil), feedB...), feedC...)...)
	g.desc("b <- %s", seqLit(feedB...))
	g.desc("c <- %s", seqLit(feedC...))
	g.desc("even(d0) <- b")
	g.desc("odd(d0) <- c")
	g.note("dfm")
	g.proc(netsim.Feeder("feedB", "b", feedB...))
	g.proc(netsim.Feeder("feedC", "c", feedC...))
	g.proc(procs.DFM("dfm", "b", "c", "d0").Proc)

	merged := len(feedB) + len(feedC)
	total := len(feedB) + len(feedC) + merged
	cur, curVals, curLen := "d0", g.alpha["d0"], merged
	for i := rng.Intn(3); i > 0; i-- {
		if total+curLen+1 > checkBudget {
			break
		}
		next := fmt.Sprintf("d%d", len(g.chans)-2)
		vals, growth := g.stage(rng, next, cur, next, curVals)
		curLen += growth
		total += curLen
		cur, curVals = next, vals
	}
	g.finishQuiescent(total)
	return nil
}

// buildPipeline is a deep Kahn pipeline: one feeder pushed through a
// chain of deterministic stages — the generated analogue of the
// kahn-buffer spec, with depth instead of nondeterminism.
func buildPipeline(rng *rand.Rand, g *genNet) error {
	n := 1 + rng.Intn(2)
	feed := make([]value.Value, n)
	for i := range feed {
		feed[i] = value.Int(int64(rng.Intn(5)))
	}
	g.note("feed(%d)", n)
	g.channel("s0", feed...)
	g.desc("s0 <- %s", seqLit(feed...))
	g.proc(netsim.Feeder("feed", "s0", feed...))

	total, cur, curVals, curLen := n, "s0", g.alpha["s0"], n
	stages := 3 + rng.Intn(4)
	for i := 1; i <= stages; i++ {
		if total+curLen+1 > checkBudget {
			break
		}
		next := fmt.Sprintf("s%d", i)
		vals, growth := g.stage(rng, next, cur, next, curVals)
		curLen += growth
		total += curLen
		cur, curVals = next, vals
	}
	g.note("depth=%d", len(g.chans)-1)
	g.finishQuiescent(total)
	return nil
}

// mergeNode wires one Figure 7 fair-merge node: in0 and in1 tagged,
// discriminated on the tagged mailbox channel, untagged onto out. The
// five desc statements are the Section 4.10 eliminated system.
func (g *genNet) mergeNode(id string, in0, in1, out string) {
	t0, t1, m := "t0"+id, "t1"+id, "m"+id
	tag := func(t int64, vs []value.Value) []value.Value {
		tagged := make([]value.Value, len(vs))
		for i, v := range vs {
			tagged[i] = value.Pair(value.Int(t), v)
		}
		return tagged
	}
	g.channel(t0, tag(0, g.alpha[in0])...)
	g.channel(t1, tag(1, g.alpha[in1])...)
	g.channel(m, append(tag(0, g.alpha[in0]), tag(1, g.alpha[in1])...)...)
	g.channel(out, append(append([]value.Value(nil), g.alpha[in0]...), g.alpha[in1]...)...)
	g.desc("%s <- tag0(%s)", t0, in0)
	g.desc("%s <- tag1(%s)", t1, in1)
	g.desc("zero(%s) <- %s", m, t0)
	g.desc("one(%s) <- %s", m, t1)
	g.desc("%s <- untag(%s)", out, m)
	g.proc(procs.Tagger("tag0"+id, in0, t0, 0).Proc)
	g.proc(procs.Tagger("tag1"+id, in1, t1, 1).Proc)
	g.proc(procs.TaggedMergeD("merge"+id, t0, t1, m).Proc)
	g.proc(procs.Untagger("untag"+id, m, out).Proc)
	g.note("merge(%s,%s)", in0, in1)
}

// buildMergeTree is a tree of Figure 7 fair merges over constant leaves.
// Check-tier trees have 2 leaves (one node); the stress tier grows the
// same grammar wide.
func buildMergeTree(rng *rand.Rand, g *genNet) error {
	// One message per leaf: a merge node quadruples every input event
	// (tag, mailbox, untag), and the exhaustive interleaving check is
	// factorial in total events — wider trees belong to the stress tier.
	l0 := evens(rng, 1)
	l1 := odds(rng, 1)
	g.note("leaves(1,1)")
	g.channel("l0", l0...)
	g.channel("l1", l1...)
	g.desc("l0 <- %s", seqLit(l0...))
	g.desc("l1 <- %s", seqLit(l1...))
	g.proc(netsim.Feeder("leaf0", "l0", l0...))
	g.proc(netsim.Feeder("leaf1", "l1", l1...))
	g.mergeNode("a", "l0", "l1", "o")
	total := 8
	if rng.Intn(2) == 0 {
		// Pointwise post-stage only: a prepend adds an 11th event AND a
		// new always-ready sender, which pushes the exhaustive
		// interleaving search past its run budget.
		a, b := int64(rng.Intn(2)+1), int64(rng.Intn(3))
		g.desc("p <- %d*o + %d", a, b)
		g.note("post%d_%d", a, b)
		entry, outVals, err := mapStage("post", "o", "p", fn.MulAdd(a, b), g.alpha["o"])
		if err != nil {
			return err
		}
		g.proc(entry.Proc)
		g.channel("p", outVals...)
		total += 2
	}
	g.finishQuiescent(total)
	return nil
}

// buildAnomaly is the generalized Brock–Ackermann family (Figure 4 with
// a random internal even sequence): process A fair-merges its internal
// evens x y with the odd feedback from B; B answers x+1 after two
// inputs. The emitted expects pin the paper's anomaly — the completed
// merge is a solution, the out-of-order variant is not.
func buildAnomaly(rng *rand.Rand, g *genNet) error {
	x := value.Int(2 * int64(rng.Intn(4)))
	y := value.Int(2 * int64(rng.Intn(4)+4)) // distinct from x
	fb := value.Int(x.MustInt() + 1)
	g.note("BA(%s,%s)", x, y)

	g.channel("c", x, y, fb)
	g.channel("b", fb)
	g.desc("even(c) <- %s", seqLit(x, y))
	g.desc("odd(c) <- b")
	g.desc("b <- fBA(c)")
	g.proc(procs.BrockAckermannAWith("A", "b", "c", x, y).Proc)
	g.proc(procs.BrockAckermannB("B", "c", "b").Proc)
	total := 4 // c carries x y fb, b carries fb

	// The anomaly pin: completed merges are solutions, the out-of-order
	// variant (odd answer overtaking the second internal even) is not.
	g.expect("nonsolution [(c,%s)(c,%s)(c,%s)(b,%s)]", x, fb, y, fb)
	if rng.Intn(2) == 0 {
		curLen := 3
		_, growth := g.stage(rng, "out", "c", "out", g.alpha["c"])
		curLen += growth
		total += curLen
	} else {
		g.expect("solution [(c,%s)(c,%s)(b,%s)(c,%s)]", x, y, fb, fb)
	}
	g.finishQuiescent(total)
	return nil
}

// buildMailbox is the actor-style family (SNIPPETS.md snippet 2): two
// senders post tagged messages into a mailbox process; the actor
// dequeues in arrival order, untags, and an optional handler stage maps
// each message body. Structurally a Figure 7 merge — which is the point:
// mailbox semantics is fair merge plus a handler.
func buildMailbox(rng *rand.Rand, g *genNet) error {
	// One message per sender — same factorial-interleaving calibration
	// as buildMergeTree.
	s0 := evens(rng, 1)
	s1 := odds(rng, 1)
	g.note("senders(1,1)")
	g.channel("s0", s0...)
	g.channel("s1", s1...)
	g.desc("s0 <- %s", seqLit(s0...))
	g.desc("s1 <- %s", seqLit(s1...))
	g.proc(netsim.Feeder("send0", "s0", s0...))
	g.proc(netsim.Feeder("send1", "s1", s1...))
	g.mergeNode("mb", "s0", "s1", "body")
	total := 8

	if rng.Intn(2) == 0 {
		a, b := int64(rng.Intn(2)+1), int64(rng.Intn(3))
		g.desc("r <- %d*body + %d", a, b)
		g.note("handler%d_%d", a, b)
		entry, outVals, err := mapStage("handler", "body", "r", fn.MulAdd(a, b), g.alpha["body"])
		if err != nil {
			return err
		}
		g.proc(entry.Proc)
		g.channel("r", outVals...)
		total += 2
	}
	g.finishQuiescent(total)
	return nil
}

// buildTicks is the rate-limited continuous-time approximation family
// (Beauxis–Mimram via PAPERS.md): independent periodic clocks — T^ω or
// (T F^k)^ω, a tick every k+1 slots — optionally zipped by the strict
// AND gate of Section 4.5. ω-processes have no finite quiescent trace,
// so this family checks under ModeHistories.
func buildTicks(rng *rand.Rand, g *genNet) error {
	periods := [][]value.Value{
		{value.T},
		{value.T, value.F},
		{value.T, value.F, value.F},
	}
	nClocks := 1 + rng.Intn(2)
	for i := 0; i < nClocks; i++ {
		p := periods[rng.Intn(len(periods))]
		k := fmt.Sprintf("k%d", i)
		g.channel(k, value.T, value.F)
		g.desc("%s <- repeat %s", k, seqLit(p...))
		g.proc(procs.Periodic("clock"+k, k, p...).Proc)
		g.note("clock%s(period=%d)", k, len(p))
	}
	if nClocks == 2 && rng.Intn(2) == 0 {
		g.channel("z", value.T, value.F)
		g.desc("z <- and(k0, k1)")
		g.proc(procs.ZipAnd("gate", "k0", "k1", "z").Proc)
		g.note("and")
	}

	cap := 4
	g.mode = check.ModeHistories
	g.depth = cap
	g.lenCap = cap
	g.maxDecisions = cap + 2
	g.opts = netsim.RealizeOpts{Limits: netsim.Limits{MaxEvents: cap}}
	return nil
}

// finishQuiescent finalizes a quiescent-mode family: the solver depth is
// the total event budget, the operational script budget is the standard
// 4× factor, and — when a deterministic probe run ends quiescent — a
// realizable trace is pinned as an `expect solution` self-check, so the
// emitted spec carries its own oracle through specvet and smoothsolve.
func (g *genNet) finishQuiescent(total int) {
	g.mode = check.ModeQuiescent
	g.depth = total
	g.lenCap = total
	g.maxDecisions = 4 * total
	if len(g.expects) > 0 {
		return // family supplied handcrafted expects
	}
	run := netsim.Run(netsim.Spec{Name: "probe", Procs: g.procs}, netsim.NewRandomDecider(1), netsim.Limits{MaxEvents: total + 4})
	if run.Err == nil && run.Reason == netsim.StopQuiescent {
		lit := ""
		for _, e := range run.Trace.Events() {
			lit += fmt.Sprintf("(%s,%s)", e.Ch, e.Val)
		}
		g.expect("solution [%s]", lit)
	}
}
