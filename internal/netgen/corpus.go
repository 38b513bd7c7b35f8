package netgen

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"smoothproc/internal/check"
	"smoothproc/internal/eqlang"
	"smoothproc/internal/netsim"
	"smoothproc/internal/solver"
)

// Family is one topology grammar of the generated corpus.
type Family struct {
	// Name is the CLI/selection key.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// build runs the grammar's random walk into the builder.
	build func(rng *rand.Rand, g *genNet) error
}

// Families returns the corpus grammars in their canonical order (the
// order `-family all` round-robins across seeds).
func Families() []Family {
	return []Family{
		{"dfm", "disjoint-parity feeders into the Section 2.2 discriminated merge, then stages", buildDFM},
		{"pipeline", "deep deterministic Kahn pipeline (kahn-buffer at generated depth)", buildPipeline},
		{"mergetree", "Figure 7 tagged fair-merge node over constant leaves", buildMergeTree},
		{"anomaly", "generalized Brock–Ackermann (Figure 4) with random internal evens", buildAnomaly},
		{"mailbox", "actor-style mailbox: tagged senders, fair dequeue, handler stage", buildMailbox},
		{"ticks", "rate-limited periodic clocks, optional strict AND gate (ω, histories mode)", buildTicks},
	}
}

// FamilyNames lists the family keys, sorted.
func FamilyNames() []string {
	fams := Families()
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	sort.Strings(names)
	return names
}

func familyByName(name string) (Family, error) {
	for _, f := range Families() {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("netgen: unknown family %q (have %v)", name, FamilyNames())
}

// Instance is one generated network, carrying both artefacts of the
// grammar walk — the emitted eqlang source (compiled back through the
// full front end) and the operational netsim spec — plus the bounds the
// conformance harness needs to compare them.
type Instance struct {
	// Family and Seed identify the grammar walk; Name is "family-seed".
	Family string
	Seed   int64
	Name   string
	// Shape summarizes the topology for failure messages.
	Shape string
	// Source is the emitted .eq file — byte-identical across runs of the
	// same seed, and the single denotational source of truth.
	Source string
	// Prog is Source compiled by internal/eqlang.
	Prog *eqlang.Program
	// Spec is the operational network.
	Spec netsim.Spec
	// Mode, LenCap, MaxDecisions and Opts parameterize the conformance
	// comparison (see check.Conformance).
	Mode         check.Mode
	LenCap       int
	MaxDecisions int
	Opts         netsim.RealizeOpts
}

// Conformance assembles the cross-check harness for the instance.
func (in *Instance) Conformance() check.Conformance {
	return check.Conformance{
		Name:         in.Name,
		Spec:         in.Spec,
		Problem:      in.Prog.Problem(),
		LenCap:       in.LenCap,
		MaxDecisions: in.MaxDecisions,
		Opts:         in.Opts,
	}
}

// CrossCheck runs the instance's conformance mode — solver enumeration
// against exhaustive operational exploration — plus the spec's own
// expect statements. This is the per-seed solver⇔netsim agreement the
// corpus exists to mass-produce.
func (in *Instance) CrossCheck(ctx context.Context) error {
	c := in.Conformance()
	if err := c.Check(ctx, in.Mode); err != nil {
		return fmt.Errorf("%s (%s): %w", in.Name, in.Shape, err)
	}
	if len(in.Prog.Expects) > 0 {
		res := solver.Enumerate(ctx, c.Problem)
		if err := in.Prog.CheckExpects(res); err != nil {
			return fmt.Errorf("%s (%s): %w", in.Name, in.Shape, err)
		}
	}
	return nil
}

// Fingerprint is the solver's deterministic search fingerprint for the
// instance — the corpus's differential oracle across machines and Go
// versions.
func (in *Instance) Fingerprint(ctx context.Context) uint64 {
	return solver.Enumerate(ctx, in.Prog.Problem()).Fingerprint()
}

// GenerateInstance runs one grammar walk: family + seed → Instance. The
// emitted source is compiled through internal/eqlang; a source that
// fails to compile is a generator bug reported with family, seed and
// shape (never a panic — one bad seed must not kill a corpus run).
func GenerateInstance(family string, seed int64) (*Instance, error) {
	fam, err := familyByName(family)
	if err != nil {
		return nil, err
	}
	g := newNet(fam.Name, seed)
	rng := rand.New(rand.NewSource(seed))
	if err := fam.build(rng, g); err != nil {
		return nil, fmt.Errorf("netgen: %s seed %d (%s): %w", fam.Name, seed, g.Shape(), err)
	}
	src := g.Source()
	prog, err := eqlang.CompileSource(src)
	if err != nil {
		return nil, fmt.Errorf("netgen: %s seed %d (%s): emitted source does not compile: %w", fam.Name, seed, g.Shape(), err)
	}
	name := fmt.Sprintf("%s-%d", fam.Name, seed)
	return &Instance{
		Family:       fam.Name,
		Seed:         seed,
		Name:         name,
		Shape:        g.Shape(),
		Source:       src,
		Prog:         prog,
		Spec:         netsim.Spec{Name: name, Procs: g.procs},
		Mode:         g.mode,
		LenCap:       g.lenCap,
		MaxDecisions: g.maxDecisions,
		Opts:         g.opts,
	}, nil
}

// Corpus generates count instances starting at baseSeed. family may be a
// single family name or "all", which round-robins the canonical family
// order across consecutive seeds — corpus position i is always the same
// instance, independent of count.
func Corpus(family string, baseSeed int64, count int) ([]*Instance, error) {
	fams := Families()
	out := make([]*Instance, 0, count)
	for i := 0; i < count; i++ {
		name := family
		if family == "all" {
			name = fams[i%len(fams)].Name
		}
		in, err := GenerateInstance(name, baseSeed+int64(i))
		if err != nil {
			return out, err
		}
		out = append(out, in)
	}
	return out, nil
}
