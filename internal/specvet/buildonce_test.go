package specvet

import (
	"os"
	"path/filepath"
	"testing"

	"smoothproc/internal/desc"
	"smoothproc/internal/descvm"
	"smoothproc/internal/fn"
	"smoothproc/internal/netgen"
	"smoothproc/internal/specplan"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// TestVetBuildsEachArtifactOnce: one Vet builds one combined
// description, the program's Problem().D, which the planner reads (it
// applies the left side it is handed) and the search gets from
// Problem(), the same IR; and the contract probe opens at most one VM
// session per side that lowers. Over every shipped and generated spec
// and a corpus draw.
func TestVetBuildsEachArtifactOnce(t *testing.T) {
	var planned []desc.Description
	applied, sessions := 0, 0
	defer func(a func(desc.System, desc.Description, map[string][]value.Value, int) *specplan.Plan, s func(*descvm.Prog) *descvm.Session) {
		analyze, newSession = a, s
	}(analyze, newSession)
	analyze = func(sys desc.System, combined desc.Description, alphabet map[string][]value.Value, depth int) *specplan.Plan {
		planned = append(planned, combined)
		f := combined.F.Apply
		combined.F.Apply = func(t trace.Trace) fn.Tuple {
			applied++
			return f(t)
		}
		return specplan.AnalyzeCombined(sys, combined, alphabet, depth)
	}
	newSession = func(p *descvm.Prog) *descvm.Session {
		sessions++
		return p.NewSession()
	}

	srcs := map[string]string{}
	for _, pattern := range []string{"*.eq", filepath.Join("generated", "*.eq")} {
		files, err := filepath.Glob(filepath.Join("..", "..", "specs", pattern))
		if err != nil || len(files) == 0 {
			t.Fatalf("no specs match %s: %v", pattern, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			srcs[filepath.Base(file)] = string(src)
		}
	}
	ins, err := netgen.Corpus("all", 1_000_000, 48)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		srcs[in.Name] = in.Source
	}
	for _, name := range sortedKeys(srcs) {
		planned, applied, sessions = nil, 0, 0
		r := Vet(srcs[name])
		if r.Program == nil {
			t.Fatalf("%s: does not compile: %v", name, r.Findings)
		}
		d := r.Program.Problem().D
		switch {
		case len(planned) != 1:
			t.Errorf("%s: planned %d times, want once", name, len(planned))
		case d.F.IR == nil || d.G.IR == nil:
			t.Errorf("%s: the combined description does not lower", name)
		case planned[0].F.IR != d.F.IR || planned[0].G.IR != d.G.IR:
			t.Errorf("%s: the planner read a combined description other than Problem().D", name)
		case applied == 0:
			t.Errorf("%s: the planner did not read the combined description it was handed", name)
		}
		lowered := 0
		for _, dd := range r.Program.System.Descs {
			for _, side := range []fn.TraceFn{dd.F, dd.G} {
				if _, ok := descvm.Compile(side); ok {
					lowered++
				}
			}
		}
		if sessions > lowered {
			t.Errorf("%s: the probe opened %d VM sessions for %d lowered sides", name, sessions, lowered)
		}
	}
}
