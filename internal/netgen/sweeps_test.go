package netgen

import (
	"context"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"smoothproc/internal/check"
	"smoothproc/internal/desc"
	"smoothproc/internal/eqlang"
	"smoothproc/internal/netsim"
	"smoothproc/internal/procs"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// The sweeps below run the paper's structural claims over the generated
// corpus: Lemma 2, Theorem 1's prefix-only characterisation, the §3.3
// tree as the batch twin of the incremental monitor, independent
// searches, the sampler, and §3.2's "smooth solutions are the
// computations". Every description is built from continuous functions,
// so a failure on any subject is a bug in the engine the sweep names.

// sweepCount is how many corpus positions each sweep draws: eight of
// every family.
const sweepCount = 48

// sweepNodes bounds the searches the denotational sweeps run; a
// truncated search is skipped where the sweep needs the whole tree.
const sweepNodes = 2_000

// subject is one description system a denotational sweep runs on.
type subject struct {
	name string
	prog *eqlang.Program
}

// sweepInstances is the corpus draw every sweep shares.
var sweepInstances = sync.OnceValues(func() ([]*Instance, error) {
	return Corpus("all", 0, sweepCount)
})

// sweepSubjects is the corpus draw plus every program of the eqlang
// fuzz corpus that compiles.
func sweepSubjects(t *testing.T) []subject {
	t.Helper()
	ins, err := sweepInstances()
	if err != nil {
		t.Fatal(err)
	}
	var out []subject
	for _, in := range ins {
		out = append(out, subject{in.Name + " (" + in.Shape + ")", in.Prog})
	}
	for i, src := range eqlang.Corpus() {
		if prog, err := eqlang.CompileSource(src); err == nil {
			out = append(out, subject{"eqlang corpus #" + strconv.Itoa(i), prog})
		}
	}
	return out
}

// randomTrace draws n events over chans from the alphabet: a trace
// that need not be a tree node.
func randomTrace(rng *rand.Rand, alpha map[string][]value.Value, chans []string, n int) trace.Trace {
	t := trace.Empty
	for range n {
		t = t.Append(randomEvent(rng, alpha, chans))
	}
	return t
}

func randomEvent(rng *rand.Rand, alpha map[string][]value.Value, chans []string) trace.Event {
	ch := chans[rng.Intn(len(chans))]
	vals := alpha[ch]
	return trace.E(ch, vals[rng.Intn(len(vals))])
}

// TestCorpusLemma2 checks Lemma 2 — every finite prefix v of a smooth
// solution satisfies f(v) ⊑ g(v) — on every solution of every
// untruncated search.
func TestCorpusLemma2(t *testing.T) {
	checked := 0
	for _, s := range sweepSubjects(t) {
		p := s.prog.Problem()
		p.MaxNodes = sweepNodes
		res := solver.Enumerate(context.Background(), p)
		if res.Truncated {
			continue
		}
		for _, sol := range res.Solutions.Traces() {
			checked++
			if err := p.D.CheckLemma2(sol); err != nil {
				t.Errorf("%s: %v", s.name, err)
			}
		}
	}
	if checked < 1000 {
		t.Errorf("Lemma 2 checked on only %d solutions", checked)
	}
}

// TestCorpusTheorem1Independents compares the full smoothness check with
// Theorem 1's prefix condition on random traces, for every independent
// description: each desc statement whose sides share no channel, and
// each combined system that is independent.
func TestCorpusTheorem1Independents(t *testing.T) {
	independents := 0
	for i, s := range sweepSubjects(t) {
		rng := rand.New(rand.NewSource(int64(i)))
		alpha := s.prog.Alphabet
		for _, d := range append([]desc.Description{s.prog.Problem().D}, s.prog.System.Descs...) {
			if !d.Independent() {
				continue
			}
			independents++
			chans := d.F.Support.Union(d.G.Support).Names()
			for range 8 {
				tr := randomTrace(rng, alpha, chans, rng.Intn(5))
				full := d.IsSmoothFinite(tr) == nil
				thm1 := d.IsSmoothFiniteThm1(tr) == nil
				if full != thm1 {
					t.Errorf("%s: %s: Theorem 1 disagreement on %s: full=%v thm1=%v", s.name, d.Name, tr, full, thm1)
				}
			}
		}
	}
	if independents < 10 {
		t.Errorf("only %d independent descriptions in the sweep", independents)
	}
}

// TestCorpusMonitorMatchesTree cross-checks the incremental monitor
// against the batch edge sweep: it accepts exactly the §3.3 tree's
// nodes, and is quiescent exactly on smooth solutions. The traces are
// leaves of the subject's search, each also with its last event redrawn
// at random, and random traces.
func TestCorpusMonitorMatchesTree(t *testing.T) {
	nodes, solutions := 0, 0
	for i, s := range sweepSubjects(t) {
		rng := rand.New(rand.NewSource(int64(i)))
		p := s.prog.Problem()
		p.MaxNodes = sweepNodes
		res := solver.Enumerate(context.Background(), p)
		leaves := slices.Concat(res.Solutions.Traces(), res.Frontier.Traces(), res.DeadLeaves.Traces())
		rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
		var traces []trace.Trace
		for _, u := range leaves[:min(len(leaves), 12)] {
			traces = append(traces, u)
			if n := u.Len(); n > 0 {
				traces = append(traces, u.Take(n-1).Append(randomEvent(rng, p.Alphabet, p.Channels)))
			}
		}
		for range 6 {
			traces = append(traces, randomTrace(rng, p.Alphabet, p.Channels, 5))
		}
		for _, tr := range traces {
			m := desc.NewMonitor(p.D)
			stepErr := m.StepAll(tr)
			tree := solver.IsTreeNode(p.D, tr)
			if (stepErr == nil) != tree {
				t.Errorf("%s: monitor=%v tree node=%v on %s", s.name, stepErr, tree, tr)
				continue
			}
			if !tree {
				continue
			}
			nodes++
			smooth := p.D.IsSmoothFinite(tr) == nil
			if smooth {
				solutions++
			}
			if m.Quiescent() != smooth {
				t.Errorf("%s: monitor quiescent=%v, smooth=%v on %s", s.name, m.Quiescent(), smooth, tr)
			}
		}
	}
	if nodes < 300 || solutions < 200 {
		t.Errorf("the sweep stepped only %d tree nodes, %d of them solutions", nodes, solutions)
	}
}

// TestCorpusConcurrentSearches runs two searches of each subject's
// Problem at once and compares each with a lone search: independent
// searches share the description and its cached bytecode, and nothing
// else.
func TestCorpusConcurrentSearches(t *testing.T) {
	ctx := context.Background()
	for _, s := range sweepSubjects(t) {
		p := s.prog.Problem()
		p.MaxNodes = sweepNodes
		lone := solver.Enumerate(ctx, p)
		if lone.Truncated {
			continue
		}
		var par [2]solver.Result
		var wg sync.WaitGroup
		for i := range par {
			wg.Add(1)
			go func() {
				defer wg.Done()
				par[i] = solver.Enumerate(ctx, p)
			}()
		}
		wg.Wait()
		for _, r := range par {
			if r.Fingerprint() != lone.Fingerprint() || r.Nodes != lone.Nodes {
				t.Errorf("%s: concurrent search %v (%d nodes), lone %v (%d nodes)",
					s.name, r.SolutionKeys(), r.Nodes, lone.SolutionKeys(), lone.Nodes)
			}
		}
	}
}

// TestCorpusSamplerSound: everything the random-walk sampler returns
// must be a smooth solution.
func TestCorpusSamplerSound(t *testing.T) {
	sampled := 0
	for i, s := range sweepSubjects(t) {
		p := s.prog.Problem()
		smp := solver.Sample(context.Background(), p, solver.SampleOpts{Seed: int64(i), Walks: 8})
		for _, tr := range smp.Solutions {
			sampled++
			if err := p.D.IsSmoothFinite(tr); err != nil {
				t.Errorf("%s: sampled non-solution %s: %v", s.name, tr, err)
			}
		}
	}
	if sampled < 100 {
		t.Errorf("the sampler returned only %d solutions", sampled)
	}
}

// TestCorpusRandomRunsAreSmooth drives every corpus network with random
// schedules: each step must be a smooth edge, and a quiescent run must
// end on a smooth solution.
func TestCorpusRandomRunsAreSmooth(t *testing.T) {
	ins, err := sweepInstances()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		if err := check.RandomRunsAreSmooth(context.Background(), in.Conformance(), []int64{1, 2, 3}, in.Opts.Limits); err != nil {
			t.Errorf("%s (%s): %v", in.Name, in.Shape, err)
		}
	}
}

// TestCorpusSolutionsRealizable checks the constructive direction: every
// smooth solution is the quiescent trace of some schedule. Realizing a
// solution replays the network once per decision script, so the sweep
// takes the draw's first network of each family within 8 events.
func TestCorpusSolutionsRealizable(t *testing.T) {
	if testing.Short() {
		t.Skip("realization sweep is slow")
	}
	ins, err := sweepInstances()
	if err != nil {
		t.Fatal(err)
	}
	done := map[string]bool{}
	for _, in := range ins {
		if done[in.Family] || in.LenCap > 8 {
			continue
		}
		done[in.Family] = true
		if err := check.SolutionsAreRealizable(context.Background(), in.Conformance()); err != nil {
			t.Errorf("%s (%s): %v", in.Name, in.Shape, err)
		}
	}
}

// forkBudget caps a forked network's total stream length, routed copies
// included. The quiescent check replays the network once per decision
// script, and the fork's oracle bits and crossing outputs multiply the
// scripts: on a 2-CPU container a forked network of 6 events checks in
// about 70 ms, one of 8 in about a second.
const forkBudget = 6

// withFork appends the §8.2 oracle fork, procs.Fork, to the end of a dfm
// network's chain: the one channel no right side reads. The fork's
// auxiliary channel fork.b carries one oracle bit per routed item; the
// conformance compares traces with it projected away. ok is false when
// the forked network would exceed forkBudget.
func withFork(in *Instance) (c check.Conformance, ok bool) {
	c = in.Conformance()
	read := trace.ChanSet{}
	for _, d := range in.Prog.System.Descs {
		read = read.Union(d.G.Support)
	}
	end := ""
	for _, ch := range c.Problem.Channels {
		if !read.Has(ch) {
			end = ch
		}
	}
	// A dfm network's streams have lengths fixed by its feeds, so one
	// run tells how many items the fork routes.
	routed := netsim.Run(in.Spec, netsim.NewRandomDecider(1), netsim.Limits{}).Trace.Channel(end).Len()
	if c.LenCap+routed > forkBudget {
		return c, false
	}
	fork := procs.Fork("fork", end, end+".L", end+".R")
	alpha := maps.Clone(c.Problem.Alphabet)
	alpha[end+".L"], alpha[end+".R"] = alpha[end], alpha[end]
	alpha[fork.Aux[0]] = []value.Value{value.T, value.F}
	c.Name += "+fork"
	c.Spec = netsim.Spec{Name: c.Name, Procs: append(slices.Clip(in.Spec.Procs), fork.Proc)}
	c.LenCap += routed
	c.MaxDecisions = 4 * c.LenCap
	c.Problem = solver.NewProblem(desc.Combine(c.Name, c.Problem.D, fork.Comp.D), alpha, c.LenCap+routed)
	c.Visible = trace.NewChanSet(c.Problem.Channels...).Without(fork.Aux...)
	return c, true
}

// TestCorpusForkConforms is quiescent conformance through the one shape
// no family emits, an auxiliary channel: at least 30 corpus dfm
// networks with the oracle fork appended must have the projections of
// their smooth solutions equal their quiescent traces.
func TestCorpusForkConforms(t *testing.T) {
	forked := 0
	for seed := int64(0); forked < 30; seed++ {
		if seed == 1_000 {
			t.Fatalf("only %d of 1000 dfm networks fit a fork in %d events", forked, forkBudget)
		}
		in, err := GenerateInstance("dfm", seed)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := withFork(in)
		if !ok {
			continue
		}
		forked++
		if err := c.CheckQuiescent(context.Background()); err != nil {
			t.Errorf("%s (%s fork): %v", in.Name, in.Shape, err)
		}
	}
}
