package specvet

import (
	"strings"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

func corpusSources(t *testing.T) []string {
	t.Helper()
	srcs := eqlang.Corpus()
	if len(srcs) == 0 {
		t.Fatal("empty corpus")
	}
	return srcs
}

// has reports whether the result contains a finding with the rule whose
// message contains frag.
func has(r Result, rule, frag string) bool {
	for _, d := range r.Findings {
		if d.Rule == rule && strings.Contains(d.Message, frag) {
			return true
		}
	}
	return false
}

func TestRuleFindings(t *testing.T) {
	cases := []struct {
		name string
		src  string
		rule string
		sev  Severity
		frag string
	}{
		{
			"parse error",
			"desc d <- <-\n",
			"parse-error", SevError, "expected an expression",
		},
		{
			"compile error",
			"alphabet c = ints 0 .. 1\ndesc c <- mystery(c)\n",
			"compile-error", SevError, "unknown function",
		},
		{
			"undefined channel",
			"alphabet c = ints 0 .. 1\ndesc c <- even(d)\n",
			"undefined-channel", SevError, "channel d",
		},
		{
			"unused alphabet",
			"alphabet c = ints 0 .. 1\nalphabet junk = ints 0 .. 9\ndesc c <- c\n",
			"unused-alphabet", SevWarning, "alphabet junk",
		},
		{
			"duplicate desc",
			"alphabet c = ints 0 .. 1\ndesc c <- [0]\ndesc c <- [1]\n",
			"duplicate-desc", SevWarning, `left side "c"`,
		},
		{
			"divergent desc",
			"alphabet d = ints 0 .. 3\ndesc d <- 2*d + 1\n",
			"divergent-desc", SevWarning, "v = 2*v+1",
		},
		{
			"thm1 independent",
			"alphabet a = ints 0 .. 1\nalphabet e = ints 0 .. 1\ndesc e <- a\n",
			"thm1-independent", SevInfo, "disjoint",
		},
		{
			"eliminable",
			"alphabet b = {0}\nalphabet c = {0}\ndesc b <- [0]\ndesc c <- b\n",
			"eliminable", SevInfo, "channel b",
		},
		{
			// Condition (1) of Theorems 5/6: the remaining left side
			// even(b) reads b, so b cannot be eliminated.
			"not eliminable",
			"alphabet b = {0}\nalphabet c = {0}\ndesc b <- [0]\ndesc even(b) <- c\n",
			"not-eliminable", SevInfo, "channel b",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Vet(tc.src)
			if !has(r, tc.rule, tc.frag) {
				t.Fatalf("Vet(%q): rule %s with %q not found in %v", tc.src, tc.rule, tc.frag, r.Findings)
			}
			for _, d := range r.Findings {
				if d.Rule == tc.rule && d.Severity != tc.sev {
					t.Errorf("rule %s severity = %s, want %s", tc.rule, d.Severity, tc.sev)
				}
				if d.Rule == tc.rule && (d.Line <= 0 || d.Col <= 0) {
					t.Errorf("rule %s finding lacks a position: %+v", tc.rule, d)
				}
			}
		})
	}
}

// TestDivergentFixpointSilent: 2*d over an alphabet containing 0 has
// the fixpoint 0 = 2·0, so the rule must stay quiet.
func TestDivergentFixpointSilent(t *testing.T) {
	r := Vet("alphabet d = ints 0 .. 3\ndesc d <- 2*d\n")
	if has(r, "divergent-desc", "") {
		t.Errorf("fixpoint-bearing description flagged divergent: %v", r.Findings)
	}
}

// TestSupportProbeCompat: an ω-constant (`repeat`) declares an empty
// support yet legitimately grows with its argument's length; the
// compatibility-based probe must not flag it.
func TestSupportProbeCompat(t *testing.T) {
	r := Vet("alphabet b = {T}\ndesc true(b) <- repeat [T]\n")
	if has(r, "support-mismatch", "") {
		t.Errorf("repeat falsely flagged: %v", r.Findings)
	}
	if r.HasErrors() {
		t.Errorf("unexpected errors: %v", r.Findings)
	}
}

// TestProbeSupportCatchesLie: a function that reads channel x while
// declaring an empty support must be caught by the probe.
func TestProbeSupportCatchesLie(t *testing.T) {
	liar := fn.TraceFn{
		Name:    "liar",
		Out:     1,
		Support: trace.NewChanSet(), // claims to read nothing
		Apply: func(t trace.Trace) fn.Tuple {
			return fn.Tuple{t.Channel("x")} // reads x anyway
		},
	}
	pr := newProbe(map[string][]value.Value{"x": value.Ints(0, 1)}, 2, 64)
	if msg, _ := pr.check(liar); msg == "" {
		t.Fatal("support probe missed a function reading outside its declared support")
	}
	honest := fn.ChanFn("x")
	if msg, _ := pr.check(honest); msg != "" {
		t.Fatalf("honest function flagged: %s", msg)
	}
}

// TestVetCorpus: the analyzer must never panic and must classify every
// corpus entry (the same property fuzzing leans on), and the corpus
// collectively triggers every rule a spec author can hit from source.
// support-mismatch and growth-bound guard the function library's
// declared contracts, so an honest library makes them unreachable from
// spec text — the corpus still stresses their probe path.
func TestVetCorpus(t *testing.T) {
	seen := map[string]int{}
	for i, src := range corpusSources(t) {
		r := Vet(src)
		if r.Program == nil && !r.HasErrors() {
			t.Errorf("corpus[%d]: no program and no errors: %q", i, src)
		}
		for _, d := range r.Findings {
			seen[d.Rule]++
			if d.Line <= 0 || d.Col <= 0 {
				t.Errorf("corpus[%d]: rule %s finding lacks a position: %+v", i, d.Rule, d)
			}
		}
	}
	sourceTriggerable := []string{
		"parse-error", "compile-error", "undefined-channel",
		"unused-alphabet", "duplicate-desc", "divergent-desc",
		"thm1-independent", "eliminable", "not-eliminable",
	}
	for _, rule := range sourceTriggerable {
		if seen[rule] == 0 {
			t.Errorf("corpus never triggers rule %s", rule)
		}
	}
	for rule := range seen {
		switch rule {
		case "support-mismatch", "growth-bound":
			t.Errorf("corpus triggered %s: the shipped library violates a declared contract", rule)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := Vet("alphabet c = ints 0 .. 1\nalphabet junk = {9}\ndesc c <- even(d)\n")
	if !r.HasErrors() {
		t.Fatal("expected errors")
	}
	errs, _, _ := r.Counts()
	if errs == 0 {
		t.Error("Counts reported no errors")
	}
	if !strings.Contains(r.Text("x.eq"), "x.eq:") {
		t.Error("Text lacks the file prefix")
	}
	clean := Vet("alphabet c = {0}\ndesc c <- c\n")
	if got := clean.Text("y.eq"); !strings.HasPrefix(got, "y.eq: clean\n") || !strings.Contains(got, "y.eq: plan: nodes(") {
		t.Errorf("clean render = %q, want a clean line followed by a plan line", got)
	}
}

func TestSupportMismatchDoc(t *testing.T) {
	// seq import keeps the example below honest: a width-1 constant fn
	// has growth len(vals); the compiled combinators respect it, so no
	// shipped spec triggers growth-bound (asserted by the goldens).
	f := fn.ConstTraceFn(seq.OfInts(1, 2))
	pr := newProbe(map[string][]value.Value{"c": value.Ints(0)}, 1, 8)
	for k := range pr.tree.Size() {
		tr := pr.tree.Trace(trace.ID(k))
		if err := fn.CheckOutputGrowth(f, tr.Len(), f.Apply(tr), tr.String); err != nil {
			t.Errorf("constant fn violates its growth bound: %v", err)
		}
	}
}

func TestElimVerdicts(t *testing.T) {
	src := `
alphabet b = {0}
alphabet c = {1}
alphabet d = {0, 1}
desc even(d) <- b
desc odd(d)  <- c
desc b <- [0]
desc c <- [1]
`
	r := Vet(src)
	if r.HasErrors() {
		t.Fatalf("vet errors: %v", r.Findings)
	}
	v, ok := r.Eliminable("b")
	if !ok || v.Index != 2 || v.Desc == "" || v.Reason != "" {
		t.Fatalf("verdict for b: %+v (ok %v)", v, ok)
	}
	if _, ok := r.Eliminable("d"); ok {
		t.Fatal("d has no defining description yet reports eliminable")
	}
	// Every defining-shaped description gets a verdict, eliminable or not.
	if len(r.Eliminations) != 2 {
		t.Fatalf("eliminations %+v, want verdicts for b and c", r.Eliminations)
	}
	for _, v := range r.Eliminations {
		if !v.Eliminable {
			t.Errorf("%s via %s unexpectedly blocked: %s", v.Channel, v.Desc, v.Reason)
		}
	}
}
