package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/netgen"
	"smoothproc/internal/specplan"
)

// Spec is one program the benchmark sends to the server, with the
// benchmark's own compile of it: the expect statements and the planner
// bracket the answer checker uses come from here, never from the server.
type Spec struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Hash   string `json:"hash"`

	prog *eqlang.Program
	plan *specplan.Plan
}

// Request is one HTTP request of a workload.
type Request struct {
	// Op is one of upload, solve, stream, create (a session) or resume.
	Op   string `json:"op"`
	Spec int    `json:"spec"`
	// Depth is the requested probe depth; Workers, when set, asks for the
	// parallel search.
	Depth   int  `json:"depth,omitempty"`
	Workers int  `json:"workers,omitempty"`
	NoCache bool `json:"no_cache,omitempty"`
	// Want is the answer path the request must take: "cold", "resumed"
	// or "replayed" for session legs, "cached" for a result-cache hit.
	Want string `json:"want,omitempty"`
}

// Job is a run of requests one client sends in order, each after the
// previous one's response (closed loop).
type Job []Request

// Phase is a set of jobs the clients drain from a shared queue. A phase
// with Restart set first closes the server and opens a new one on the
// same data directory.
type Phase struct {
	Restart bool  `json:"restart,omitempty"`
	Jobs    []Job `json:"jobs"`
}

// Inputs is a workload's whole request sequence for one seed. Every pass
// of a run replays it unchanged.
type Inputs struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Clients  int     `json:"clients"`
	Specs    []Spec  `json:"specs"`
	Warm     []int   `json:"warm"`
	Phases   []Phase `json:"phases"`
}

// Requests counts the HTTP requests of one pass.
func (in *Inputs) Requests() int {
	n := 0
	for _, ph := range in.Phases {
		for _, j := range ph.Jobs {
			n += len(j)
		}
	}
	return n
}

var workloads = map[string]func(root string, seed int64) (*Inputs, error){
	"solve-mix":      solveMix,
	"author-fresh":   authorFresh,
	"session-deepen": sessionDeepen,
	"stress-w2":      stressW2,
}

// workloadNames lists the workloads in a fixed order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// generate builds a workload's inputs. root is the repository root the
// shipped specs are read from.
func generate(workload, root string, seed int64) (*Inputs, error) {
	gen, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames())
	}
	return gen(root, seed)
}

func newSpec(name, source string) (Spec, error) {
	prog, err := eqlang.CompileSource(source)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", name, err)
	}
	return compiledSpec(name, source, prog), nil
}

func compiledSpec(name, source string, prog *eqlang.Program) Spec {
	sum := sha256.Sum256([]byte(source))
	return Spec{
		Name:   name,
		Source: source,
		Hash:   hex.EncodeToString(sum[:]),
		prog:   prog,
		plan:   specplan.Analyze(prog.System, prog.Alphabet, prog.Depth),
	}
}

// shippedSpecs reads specs/*.eq and specs/generated/*.eq in name order.
func shippedSpecs(root string) ([]Spec, error) {
	var paths []string
	for _, pat := range []string{"specs/*.eq", "specs/generated/*.eq"} {
		m, err := filepath.Glob(filepath.Join(root, pat))
		if err != nil {
			return nil, err
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no specs under %s/specs: run from the repository root", root)
	}
	sort.Strings(paths)
	specs := make([]Spec, 0, len(paths))
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, p)
		s, err := newSpec(filepath.ToSlash(rel), string(src))
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

func instanceSpec(in *netgen.Instance) Spec { return compiledSpec(in.Name, in.Source, in.Prog) }

// planClass is what the planner says about a spec's search: its depth
// and node brackets there and two levels deeper, where session-deepen
// takes it. Check-tier instances of one family with equal classes search
// trees of (nearly) the same size. size, when set, is the source length
// in 256-byte steps, for the cost of compiling it.
type planClass struct {
	family           string
	depth            int
	lo, hi, deeperHi uint64
	size             int
}

func classOf(family string, s Spec) planClass {
	d := s.prog.Depth
	return planClass{family, d, s.plan.MinNodes(d), s.plan.Nodes(d), s.plan.Nodes(d + 2), 0}
}

// shallowClassOf is the plan class at author-fresh's solve depth, with
// the source size, since the upload compiles the source.
func shallowClassOf(family string, s Spec) planClass {
	d := min(freshDepth, s.prog.Depth)
	return planClass{family, d, s.plan.MinNodes(d), s.plan.Nodes(d), 0, len(s.Source) / 256}
}

// matchScan bounds the search for a seeded instance matching a template
// slot; an unmatched slot keeps the template instance.
const matchScan = 400

// matchedCorpus draws, from seeds baseSeed on, one instance per template
// spec with the same family and class, so every seed's draw costs about
// the same while the instances themselves differ. No source is drawn
// twice.
func matchedCorpus(template []Spec, families []string, baseSeed int64, class func(string, Spec) planClass) []Spec {
	next := map[string]int64{}
	seen := map[string]bool{}
	for _, t := range template {
		seen[t.Hash] = true
	}
	out := make([]Spec, len(template))
	for i, t := range template {
		fam := families[i]
		want := class(fam, t)
		out[i] = t
		for k := 0; k < matchScan; k++ {
			seed := baseSeed + next[fam]
			next[fam]++
			in, err := netgen.GenerateInstance(fam, seed)
			if err != nil {
				continue
			}
			if s := instanceSpec(in); !seen[s.Hash] && class(fam, s) == want {
				out[i] = s
				seen[s.Hash] = true
				break
			}
		}
	}
	return out
}

// templateCorpus is the fixed, seed-independent check-tier draw whose
// plan classes a workload's seeded draw matches.
func templateCorpus(baseSeed int64, count int, accept func(family string, s Spec) bool) (specs []Spec, families []string, err error) {
	ins, err := netgen.Corpus("all", baseSeed, count)
	if err != nil {
		return nil, nil, err
	}
	for _, in := range ins {
		if s := instanceSpec(in); accept(in.Family, s) {
			specs = append(specs, s)
			families = append(families, in.Family)
		}
	}
	return specs, families, nil
}

func allSpecIndexes(specs []Spec) []int {
	idx := make([]int, len(specs))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// mixHeavyNodes drops corpus instances whose planned tree at their own
// depth may exceed this many nodes. The check tier has a few classes
// (wide discriminated merges, deep mailboxes) that take 50–450 ms each;
// a few of them would dominate the mix's wall time. The shipped specs
// keep a heavy tail of their own.
const mixHeavyNodes = 3_000_000

// solveMix: every shipped spec five times and a seeded check-tier draw
// twice each, shuffled; every fourth request streams. The draw matches
// the plan classes of a fixed template corpus.
func solveMix(root string, seed int64) (*Inputs, error) {
	specs, err := shippedSpecs(root)
	if err != nil {
		return nil, err
	}
	shipped := len(specs)
	template, families, err := templateCorpus(0, 48, func(_ string, s Spec) bool {
		return s.plan.Nodes(s.prog.Depth) <= mixHeavyNodes
	})
	if err != nil {
		return nil, err
	}
	specs = append(specs, matchedCorpus(template, families, 100_000*(seed+1), classOf)...)
	var reqs []Request
	for i, s := range specs {
		times := 2
		if i < shipped {
			times = 5
		}
		for k := 0; k < times; k++ {
			reqs = append(reqs, Request{Op: "solve", Spec: i, Depth: s.prog.Depth, NoCache: true})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	jobs := make([]Job, len(reqs))
	for i, r := range reqs {
		if i%4 == 3 {
			r.Op = "stream"
		}
		jobs[i] = Job{r}
	}
	return &Inputs{
		Workload: "solve-mix", Seed: seed, Clients: 2,
		Specs: specs, Warm: allSpecIndexes(specs),
		Phases: []Phase{{Jobs: jobs}},
	}, nil
}

// freshDepth is author-fresh's shallow solve depth.
const freshDepth = 2

// freshSpecs is author-fresh's upload count per pass: more than the
// server's 128-entry spec cache, so uploads evict.
const freshSpecs = 192

// authorFresh: upload a never-seen generated spec, solve it shallowly by
// hash, then upload another never-seen spec of the same family. The
// shipped specs are uploaded during set-up.
//
// Two uploads a solve: an upload takes about six times a shallow solve,
// and with one each the median latency fell between the two kinds. One
// client: with two, on a two-CPU machine, the clients, handlers and
// search workers of these millisecond requests contend for both CPUs,
// and throughput swung by a fifth from one pass to the next.
func authorFresh(root string, seed int64) (*Inputs, error) {
	specs, err := shippedSpecs(root)
	if err != nil {
		return nil, err
	}
	warm := allSpecIndexes(specs)
	template, families, err := templateCorpus(1_000_000, freshSpecs, func(string, Spec) bool { return true })
	if err != nil {
		return nil, err
	}
	fresh := matchedCorpus(template, families, 2_000_000+100_000*seed, shallowClassOf)
	// The corpus cycles through the families, so specs k and k+fams of a
	// run of 2×fams are of one family.
	fams := len(netgen.FamilyNames())
	var jobs []Job
	for b := 0; b+2*fams <= len(fresh); b += 2 * fams {
		for k := b; k < b+fams; k++ {
			i := len(specs)
			specs = append(specs, fresh[k], fresh[k+fams])
			jobs = append(jobs, Job{
				{Op: "upload", Spec: i},
				{Op: "solve", Spec: i, Depth: min(freshDepth, fresh[k].prog.Depth)},
				{Op: "upload", Spec: i + 1},
			})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return &Inputs{
		Workload: "author-fresh", Seed: seed, Clients: 1,
		Specs: specs, Warm: warm,
		Phases: []Phase{{Jobs: jobs}},
	}, nil
}

// deepenNodes bounds session-deepen's planned tree at depth d+2, so one
// lifecycle stays within tens of milliseconds.
const deepenNodes = 100_000

// deepenCorpus is the number of seeded check-tier specs session-deepen
// adds to the shipped ones that qualify.
const deepenCorpus = 8

// sessionDeepen: per spec, a session created at its depth d, resumed to
// d+1 and d+2, replayed at d+2, then two identical solves at d+2. Then
// the server restarts on the same store, and every spec's session is
// replayed and its result served again, both read back from the store.
// Restoring every spec, not a seeded half, keeps the seeds' costs equal.
//
// The store is in memory, shared across the restart, so checkpoint
// encoding and the session codec do the work rather than file I/O, whose
// latency on a shared host swings by several times from one minute to
// the next. One client, for the reason authorFresh gives.
func sessionDeepen(root string, seed int64) (*Inputs, error) {
	ok := func(family string, s Spec) bool {
		d := s.prog.Depth + 2
		// A pipeline's plan class leaves its stage functions, and so its
		// memo and checkpoint size, free; the other families' classes pin
		// them.
		return family != "pipeline" && len(s.prog.Expects) > 0 && d <= 12 && s.plan.Nodes(d) <= deepenNodes
	}
	shipped, err := shippedSpecs(root)
	if err != nil {
		return nil, err
	}
	var specs []Spec
	for _, s := range shipped {
		if ok("", s) {
			specs = append(specs, s)
		}
	}
	template, families, err := templateCorpus(1000, 120, ok)
	if err != nil {
		return nil, err
	}
	if len(template) < deepenCorpus {
		return nil, fmt.Errorf("session-deepen: only %d of 120 corpus specs qualify", len(template))
	}
	specs = append(specs, matchedCorpus(template[:deepenCorpus], families, 50_000_000+100_000*seed, classOf)...)
	lifecycle := func(i int) Job {
		d := specs[i].prog.Depth
		return Job{
			{Op: "create", Spec: i, Depth: d, Want: "cold"},
			{Op: "resume", Spec: i, Depth: d + 1, Want: "resumed"},
			{Op: "resume", Spec: i, Depth: d + 2, Want: "resumed"},
			{Op: "resume", Spec: i, Depth: d + 2, Want: "replayed"},
			{Op: "solve", Spec: i, Depth: d + 2},
			{Op: "solve", Spec: i, Depth: d + 2, Want: "cached"},
		}
	}
	// The order is fixed, so only the drawn instances vary with the seed.
	var first, second []Job
	for i := range specs {
		first = append(first, lifecycle(i))
		d := specs[i].prog.Depth + 2
		second = append(second, Job{
			{Op: "resume", Spec: i, Depth: d, Want: "replayed"},
			{Op: "solve", Spec: i, Depth: d, Want: "cached"},
		})
	}
	return &Inputs{
		Workload: "session-deepen", Seed: seed, Clients: 1,
		Specs: specs, Warm: allSpecIndexes(specs),
		Phases: []Phase{{Jobs: first}, {Restart: true, Jobs: second}},
	}, nil
}

// stressCount is how many stress instances stress-w2 sends per pass.
const stressCount = 12

// stressW2: seeded stress-tier instances of one shape, each solved once
// with two workers. The stress generator draws one of a few buffer
// shapes per seed, and the shape alone fixes the tree. With one shape
// every request costs the same, so the latency percentiles sit on one
// search's time instead of on the gaps between shapes. The shape is the
// cheapest of the widest (most parallel) ones the generator draws.
func stressW2(_ string, seed int64) (*Inputs, error) {
	gen := func(s int64) (*netgen.StressInstance, Spec, error) {
		inst, err := netgen.Stress(s, netgen.StressConfig{TargetNodes: 10_000})
		if err != nil {
			return nil, Spec{}, err
		}
		sp, err := newSpec(inst.Name, inst.Source)
		return inst, sp, err
	}
	shape, width, bound := "", 0, uint64(0)
	for s := int64(0); s < 60; s++ {
		inst, sp, err := gen(s)
		if err != nil {
			return nil, err
		}
		w, n := sp.plan.PartitionWidth, sp.plan.Nodes(sp.prog.Depth)
		if shape == "" || w > width || (w == width && (n < bound || n == bound && inst.Shape < shape)) {
			shape, width, bound = inst.Shape, w, n
		}
	}
	var specs []Spec
	for s := int64(0); len(specs) < stressCount; s++ {
		if s == 2000 {
			return nil, fmt.Errorf("stress-w2: %d instances of %s in 2000 seeds", len(specs), shape)
		}
		inst, sp, err := gen(3_000_000 + seed*10_000 + s)
		if err != nil {
			return nil, err
		}
		if inst.Shape == shape {
			specs = append(specs, sp)
		}
	}
	var jobs []Job
	for i, s := range specs {
		jobs = append(jobs, Job{{Op: "solve", Spec: i, Depth: s.prog.Depth, Workers: 2, NoCache: true}})
	}
	return &Inputs{
		Workload: "stress-w2", Seed: seed, Clients: 1,
		Specs: specs, Warm: allSpecIndexes(specs),
		Phases: []Phase{{Jobs: jobs}},
	}, nil
}
