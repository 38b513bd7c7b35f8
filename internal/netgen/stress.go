package netgen

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
	"smoothproc/internal/specplan"
)

// StressConfig bounds the stress tier. Unlike the check-tier families,
// stress instances are not exhaustively cross-checked — they exist to
// drive the search, session capture/resume and smoothd admission
// control at 10⁵–10⁶ search nodes, sizes the static planner can predict
// but only the real search can verify.
type StressConfig struct {
	// TargetNodes is the lower bound on the predicted search tree
	// (specplan's sound MinNodes bracket), default 100 000.
	TargetNodes uint64
	// MaxDepth caps the calibration loop, default 64.
	MaxDepth int
}

func (c StressConfig) withDefaults() StressConfig {
	if c.TargetNodes == 0 {
		c.TargetNodes = 100_000
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 64
	}
	return c
}

// StressInstance is one calibrated large instance: the emitted source,
// its compiled program, and the planner's node bracket at the calibrated
// depth. PredictedMin ≥ the config's TargetNodes by construction.
type StressInstance struct {
	Name   string
	Seed   int64
	Shape  string
	Source string
	Prog   *eqlang.Program
	Depth  int
	// PredictedMin and PredictedMax are specplan's [MinNodes, Nodes]
	// bracket at Depth — the same numbers smoothd's admission control
	// compares against a request's max_nodes budget.
	PredictedMin uint64
	PredictedMax uint64
}

// Stress generates a calibrated stress instance for a seed. The shape is
// a buffer farm — w independent Kahn buffers over an m-value alphabet —
// drawn from the seed, with the depth then raised until the planner's
// sound lower bound clears TargetNodes. Buffers are the right stress
// shape because their tree is pure interleaving: every node is reachable,
// Theorem 1 admits input events without evaluation, and the node count
// grows exponentially in depth with no pruning cliff, so every level of
// the search is wider than the last.
func Stress(seed int64, cfg StressConfig) (*StressInstance, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	m := 2 + rng.Intn(3)     // alphabet size per buffer
	wide := rng.Intn(2) == 1 // one buffer, or two independent ones

	var b strings.Builder
	shape := fmt.Sprintf("buffer(m=%d)", m)
	if wide {
		shape = fmt.Sprintf("twin-buffer(m=%d)", m)
	}
	fmt.Fprintf(&b, "# generated: stress seed=%d shape=%s\n", seed, shape)
	fmt.Fprintf(&b, "alphabet a = ints 0 .. %d\n", m-1)
	fmt.Fprintf(&b, "alphabet e = ints 0 .. %d\n", m-1)
	if wide {
		fmt.Fprintf(&b, "alphabet a2 = ints 0 .. %d\n", m-1)
		fmt.Fprintf(&b, "alphabet e2 = ints 0 .. %d\n", m-1)
	}
	head := b.String()
	body := "desc e <- a\n"
	if wide {
		body += "desc e2 <- a2\n"
	}

	// Calibrate the probe depth: compile once, then walk the planner's
	// [MinNodes, Nodes] bracket up the depths until its geometric mean
	// clears the target. The real tree sits between the bounds — for
	// buffer shapes, measured at 2–5× the geomean — so the mean is the
	// right dial: calibrating on MinNodes alone overshoots the depth by
	// 4–5 levels (~100× the work), on Nodes alone it undershoots. The
	// planner is O(spec), so this loop costs microseconds — no search
	// runs here; the stress tests assert the actual node count.
	prog, err := eqlang.CompileSource(head + "depth 1\n" + body)
	if err != nil {
		return nil, fmt.Errorf("netgen: stress seed %d: %w", seed, err)
	}
	depth := 0
	for d := 2; d <= cfg.MaxDepth; d++ {
		p := specplan.Analyze(prog.System, prog.Alphabet, d)
		mean := math.Sqrt(float64(p.MinNodes(d)) * float64(p.Nodes(d)))
		if mean >= float64(cfg.TargetNodes) {
			depth = d
			break
		}
	}
	if depth == 0 {
		return nil, fmt.Errorf("netgen: stress seed %d (%s): target %d nodes unreachable within depth %d",
			seed, shape, cfg.TargetNodes, cfg.MaxDepth)
	}

	src := head + fmt.Sprintf("depth %d\n", depth) + body
	final, err := eqlang.CompileSource(src)
	if err != nil {
		return nil, fmt.Errorf("netgen: stress seed %d: %w", seed, err)
	}
	plan := specplan.Analyze(final.System, final.Alphabet, depth)
	return &StressInstance{
		Name:         fmt.Sprintf("stress-%d", seed),
		Seed:         seed,
		Shape:        fmt.Sprintf("%s depth=%d", shape, depth),
		Source:       src,
		Prog:         final,
		Depth:        depth,
		PredictedMin: plan.MinNodes(depth),
		PredictedMax: plan.Nodes(depth),
	}, nil
}

// Solve runs the instance through the solver.
func (s *StressInstance) Solve(ctx context.Context) solver.Result {
	return solver.Enumerate(ctx, s.Prog.Problem())
}
