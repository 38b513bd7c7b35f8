package netgen

import (
	"fmt"
	"math/rand"
	"strings"

	"smoothproc/internal/check"
	"smoothproc/internal/netsim"
	"smoothproc/internal/value"
)

// genNet accumulates one generated network in both of its forms at once:
// the eqlang source text (alphabets, depth, desc statements, expects)
// and the operational netsim processes. The emitted source is the single
// denotational source of truth — it is compiled back through
// internal/eqlang, so every instance exercises the full parse → vet →
// compile → plan → solve pipeline rather than a bespoke in-process
// Description, and the corpus doubles as a fuzz/differential feed for
// the language front end.
type genNet struct {
	family string
	seed   int64

	chans   []string // alphabet declaration order
	alpha   map[string][]value.Value
	descs   []string // desc statements, in order
	expects []string
	depth   int

	procs []netsim.Proc

	shape        []string
	mode         check.Mode
	lenCap       int
	maxDecisions int
	opts         netsim.RealizeOpts
}

func newNet(family string, seed int64) *genNet {
	return &genNet{family: family, seed: seed, alpha: map[string][]value.Value{}}
}

// channel declares a channel's alphabet (deduplicated, first-seen order)
// and returns the deduplicated values for downstream image computation.
func (g *genNet) channel(name string, vs ...value.Value) []value.Value {
	d := dedup(vs)
	if _, ok := g.alpha[name]; !ok {
		g.chans = append(g.chans, name)
	}
	g.alpha[name] = d
	return d
}

func (g *genNet) desc(format string, args ...any) {
	g.descs = append(g.descs, fmt.Sprintf(format, args...))
}

func (g *genNet) expect(format string, args ...any) {
	g.expects = append(g.expects, fmt.Sprintf(format, args...))
}

func (g *genNet) proc(p netsim.Proc) { g.procs = append(g.procs, p) }

func (g *genNet) note(format string, args ...any) {
	g.shape = append(g.shape, fmt.Sprintf(format, args...))
}

// Shape is the human-readable topology summary for failure messages.
func (g *genNet) Shape() string { return strings.Join(g.shape, " ") }

// Source renders the eqlang file: a provenance header, the alphabets in
// declaration order, the depth, the descriptions, and any expects. The
// rendering is fully deterministic — same builder state, same bytes —
// which is what makes same-seed corpus runs byte-identical across
// machines (the seed-stability contract).
func (g *genNet) Source() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# generated: family=%s seed=%d\n", g.family, g.seed)
	fmt.Fprintf(&b, "# shape: %s\n", g.Shape())
	for _, ch := range g.chans {
		fmt.Fprintf(&b, "alphabet %s = %s\n", ch, setLit(g.alpha[ch]))
	}
	fmt.Fprintf(&b, "depth %d\n", g.depth)
	for _, d := range g.descs {
		fmt.Fprintf(&b, "desc %s\n", d)
	}
	for _, e := range g.expects {
		fmt.Fprintf(&b, "expect %s\n", e)
	}
	return b.String()
}

// setLit renders an alphabet literal {v, w, ...}.
func setLit(vs []value.Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// seqLit renders a sequence literal [v, w, ...].
func seqLit(vs ...value.Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// evens and odds draw n values of fixed parity from a small range — the
// disjoint-parity trick that keeps discriminated merges describable
// (Section 2.2).
func evens(rng *rand.Rand, n int) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		out[i] = value.Int(2 * int64(rng.Intn(4)))
	}
	return out
}

func odds(rng *rand.Rand, n int) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		out[i] = value.Int(2*int64(rng.Intn(4)) + 1)
	}
	return out
}
