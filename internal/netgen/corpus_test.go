package netgen

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"smoothproc/internal/descvm"
	"smoothproc/internal/specvet"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the pinned corpus goldens under specs/generated/")

// TestCorpusCrossChecks is the tier-1 slice of the corpus sweep: a few
// seeds of every family, each cross-checked solver⇔netsim under the
// family's mode. The full-width sweep runs in the CI corpus job via
// `smoothsolve corpus`.
func TestCorpusCrossChecks(t *testing.T) {
	seeds := int64(2)
	if !testing.Short() {
		seeds = 4
	}
	for _, fam := range FamilyNames() {
		for seed := int64(0); seed < seeds; seed++ {
			in, err := GenerateInstance(fam, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.CrossCheck(context.Background()); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestCorpusSeedStability is the differential-oracle contract: the same
// seed and family must reproduce byte-identical source, identical shape,
// and the identical search fingerprint — across machines and Go
// versions.
func TestCorpusSeedStability(t *testing.T) {
	ctx := context.Background()
	for _, fam := range FamilyNames() {
		a, err := GenerateInstance(fam, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GenerateInstance(fam, 5)
		if err != nil {
			t.Fatal(err)
		}
		if a.Source != b.Source {
			t.Errorf("%s: same seed produced different sources:\n%s\n---\n%s", fam, a.Source, b.Source)
		}
		if a.Shape != b.Shape {
			t.Errorf("%s: same seed produced shapes %q vs %q", fam, a.Shape, b.Shape)
		}
		if fa, fb := a.Fingerprint(ctx), b.Fingerprint(ctx); fa != fb {
			t.Errorf("%s (%s): same seed produced fingerprints %x vs %x", fam, a.Shape, fa, fb)
		}
	}
}

// TestCorpusSourcesVetAndCompile routes every emitted source through the
// static stack: specvet must report no errors and both combined sides
// must lower to descvm bytecode that passes the static verifier — the
// same gauntlet smoothd runs at spec upload.
func TestCorpusSourcesVetAndCompile(t *testing.T) {
	for _, fam := range FamilyNames() {
		for seed := int64(0); seed < 3; seed++ {
			in, err := GenerateInstance(fam, seed)
			if err != nil {
				t.Fatal(err)
			}
			res := specvet.Vet(in.Source)
			if res.HasErrors() {
				t.Errorf("%s (%s): specvet errors:\n%s", in.Name, in.Shape, res.Text(in.Name))
			}
			d := in.Prog.Problem().D
			pf, okf := descvm.Compile(d.F)
			pg, okg := descvm.Compile(d.G)
			if !okf || !okg {
				t.Errorf("%s (%s): sides did not lower to bytecode (f %v, g %v)", in.Name, in.Shape, okf, okg)
				continue
			}
			if err := descvm.Verify(pf); err != nil {
				t.Errorf("%s: f verify: %v", in.Name, err)
			}
			if err := descvm.Verify(pg); err != nil {
				t.Errorf("%s: g verify: %v", in.Name, err)
			}
		}
	}
}

// TestCorpusShapeVariety checks the grammar actually varies: across 30
// seeds of the whole corpus, many distinct shapes must appear.
func TestCorpusShapeVariety(t *testing.T) {
	shapes := map[string]bool{}
	ins, err := Corpus("all", 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		shapes[in.Family+": "+in.Shape] = true
	}
	if len(shapes) < 12 {
		t.Errorf("only %d distinct shapes over 30 corpus instances", len(shapes))
	}
}

// TestCorpusRoundRobin pins the `-family all` layout: corpus position i
// is the canonical family order at seed base+i, independent of count.
func TestCorpusRoundRobin(t *testing.T) {
	ins, err := Corpus("all", 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	fams := Families()
	for i, in := range ins {
		wantFam := fams[i%len(fams)].Name
		if in.Family != wantFam || in.Seed != 10+int64(i) {
			t.Errorf("position %d: got %s seed %d, want %s seed %d", i, in.Family, in.Seed, wantFam, 10+int64(i))
		}
	}
}

// TestCorpusGoldens pins one emitted source per family as a committed
// .eq file under specs/generated/ — drift in the emitter or the grammar
// walk is a reviewable diff, not a silent corpus change. Regenerate with
// `go test ./internal/netgen -run Goldens -update-golden`.
func TestCorpusGoldens(t *testing.T) {
	dir := filepath.Join("..", "..", "specs", "generated")
	for _, fam := range FamilyNames() {
		in, err := GenerateInstance(fam, 0)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fam+"-0.eq")
		if *updateGolden {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(in.Source), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update-golden to create)", fam, err)
		}
		if string(want) != in.Source {
			t.Errorf("%s: emitted source drifted from golden %s:\n got:\n%s\nwant:\n%s", fam, path, in.Source, want)
		}
	}
}
