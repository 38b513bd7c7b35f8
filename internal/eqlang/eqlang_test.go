package eqlang

import (
	"context"
	"strings"
	"testing"

	"smoothproc/internal/seq"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

const fig3Src = `
# Figure 3, equations (1) and (2)
alphabet d = ints -2 .. 7
depth 6
desc even(d) <- [0] ; 2*d
desc odd(d)  <- 2*d + 1
`

const fig4Src = `
# Brock-Ackermann (Figure 4), full system over channels b and c.
alphabet b = {1}
alphabet c = ints 0 .. 2
depth 4
desc even(c) <- [0, 2]
desc odd(c)  <- b
desc b <- fBA(c)
`

const dfmSrc = `
alphabet b = {0}
alphabet c = {1}
alphabet d = {0, 1}
depth 4
desc even(d) <- b
desc odd(d)  <- c
desc b <- [0]
desc c <- [1]
`

func TestLexBasics(t *testing.T) {
	toks, err := lex("desc even(d) <- [0] ; 2*d + 1 # comment\n")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]tokenKind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.kind
	}
	want := []tokenKind{
		tokIdent, tokIdent, tokLParen, tokIdent, tokRParen, tokArrow,
		tokLBrack, tokInt, tokRBrack, tokSemi, tokInt, tokStar, tokIdent,
		tokPlus, tokInt, tokNewline, tokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexNegativeIntVsMinus(t *testing.T) {
	toks, err := lex("ints -2 .. 7")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].kind != tokInt || toks[1].text != "-2" {
		t.Errorf("negative literal lexed as %v %q", toks[1].kind, toks[1].text)
	}
	toks2, err := lex("d - x")
	if err != nil {
		t.Fatal(err)
	}
	if toks2[1].kind != tokMinus {
		t.Errorf("operator minus lexed as %v", toks2[1].kind)
	}
}

func TestLexRejectsGarbage(t *testing.T) {
	if _, err := lex("desc @"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestParseFig3(t *testing.T) {
	f, err := Parse(fig3Src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Descs) != 2 || len(f.Alphabets) != 1 || f.Depth != 6 {
		t.Fatalf("file = %+v", f)
	}
	if f.Alphabets[0].Channel != "d" || len(f.Alphabets[0].Values) != 10 {
		t.Errorf("alphabet = %+v", f.Alphabets[0])
	}
	// LHS of eq1 is even(d).
	call, ok := f.Descs[0].Lhs.(*CallExpr)
	if !ok || call.Fn != "even" {
		t.Errorf("lhs = %#v", f.Descs[0].Lhs)
	}
	// RHS of eq1 is [0] ; 2*d.
	cat, ok := f.Descs[0].Rhs.(*ConcatExpr)
	if !ok || len(cat.Prefix) != 1 {
		t.Fatalf("rhs = %#v", f.Descs[0].Rhs)
	}
	if _, ok := cat.Rest.(*LinearExpr); !ok {
		t.Errorf("rest = %#v", cat.Rest)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown statement":  "frobnicate x\n",
		"missing arrow":      "desc even(d) [0]\n",
		"bad depth":          "depth x\n",
		"concat non-literal": "alphabet d = {0}\ndesc d <- d ; d\n",
		"empty range":        "alphabet d = ints 5 .. 2\n",
		"range too wide":     "alphabet d = ints 0 .. 65536\n",
		"range of int64":     "alphabet d = ints 0 .. 9223372036854775807\n",
		"range that wraps":   "alphabet d = ints -9223372036854775808 .. 9223372036854775807\n",
		"empty braces":       "alphabet d = {}\n",
		"bad alphabet":       "alphabet d = 5\n",
		"dangling paren":     "desc (d <- d\n",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

func TestParseValueForms(t *testing.T) {
	src := "alphabet b = {1, T, F, tick, (0, 5)}\ndesc b <- [T]\n"
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	vals := f.Alphabets[0].Values
	if len(vals) != 5 {
		t.Fatalf("values = %v", vals)
	}
	if !vals[4].Equal(value.Pair(value.Int(0), value.Int(5))) {
		t.Errorf("pair = %s", vals[4])
	}
}

func TestCompileFig3MatchesHandBuilt(t *testing.T) {
	p, err := CompileSource(fig3Src)
	if err != nil {
		t.Fatal(err)
	}
	d := p.System.Combined()
	// Probe with the Section 2.3 sequences: prefixes of x are smooth
	// tree nodes; z's first element is rejected.
	x := trace.Of(
		trace.E("d", value.Int(0)), trace.E("d", value.Int(0)), trace.E("d", value.Int(1)),
	)
	if !solver.IsTreeNode(d, x) {
		t.Error("x-prefix rejected by compiled description")
	}
	z := trace.Of(trace.E("d", value.Int(-1)))
	if solver.IsTreeNode(d, z) {
		t.Error("z-prefix accepted by compiled description")
	}
}

func TestCompileFig4UniqueSolution(t *testing.T) {
	p, err := CompileSource(fig4Src)
	if err != nil {
		t.Fatal(err)
	}
	res := solver.Enumerate(context.Background(), p.Problem())
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions: %v", res.SolutionKeys())
	}
	if got := res.Solutions[0].Channel("c"); !got.Equal(seq.OfInts(0, 2, 1)) {
		t.Errorf("c = %s, want ⟨0 2 1⟩ (the Brock-Ackermann resolution)", got)
	}
}

func TestCompileDFM(t *testing.T) {
	p, err := CompileSource(dfmSrc)
	if err != nil {
		t.Fatal(err)
	}
	res := solver.Enumerate(context.Background(), p.Problem())
	if len(res.Solutions) == 0 {
		t.Fatal("no dfm solutions")
	}
	for _, s := range res.Solutions {
		if s.Channel("d").Len() != 2 {
			t.Errorf("incomplete merge %s", s)
		}
	}
}

func TestCompileBuiltins(t *testing.T) {
	src := `
alphabet b = {T, F}
alphabet c = {T}
alphabet d = {T, F}
depth 4
desc R(b) <- [T]
desc d <- and(b, c)
`
	p, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	res := solver.Enumerate(context.Background(), p.Problem())
	// With no c input available beyond the alphabet... c is
	// unconstrained by any description here, so solutions include traces
	// supplying c and d. Just verify the Section 4.5 trace appears.
	want := trace.Of(trace.E("b", value.T), trace.E("c", value.T), trace.E("d", value.T))
	if !res.Contains(want) {
		t.Errorf("implication trace missing; got %v", res.SolutionKeys())
	}
}

func TestCompileRepeat(t *testing.T) {
	src := `
alphabet c = {T, F}
depth 4
desc true(c) <- repeat [T]
desc false(c) <- repeat [F]
`
	p, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	res := solver.Enumerate(context.Background(), p.Problem())
	if len(res.Solutions) != 0 {
		t.Errorf("fair-random has finite solutions: %v", res.SolutionKeys())
	}
	if res.Nodes < 31 {
		t.Errorf("tree too small: %d nodes", res.Nodes)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"unknown fn":   "alphabet d = {0}\ndesc bogus(d) <- d\n",
		"arity unary":  "alphabet d = {0}\ndesc even(d, d) <- d\n",
		"arity binary": "alphabet d = {0}\ndesc and(d) <- d\n",
		"no alphabet":  "desc even(d) <- d\n",
		"empty file":   "# nothing\n",
		"dup alphabet": "alphabet d = {0}\nalphabet d = {1}\ndesc d <- d\n",
		"repeat empty": "alphabet d = {0}\ndesc d <- repeat []\n",
	}
	for name, src := range cases {
		if _, err := CompileSource(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestErrorType(t *testing.T) {
	_, err := Parse("depth x\n")
	var e *Error
	if !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error lacks line info: %v", err)
	}
	if !asError(err, &e) {
		t.Errorf("error is not *Error: %T", err)
	}
}

func asError(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

// TestErrorPositions pins the line:col carried by parse and compile
// errors — every diagnostic must locate its offending token.
func TestErrorPositions(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		line, col int
	}{
		{"lex garbage", "desc d <- ?\n", 1, 11},
		{"parse bad token", "alphabet c = ints 0 .. 1\ndesc c <- <-\n", 2, 11},
		{"unknown statement", "alphabet c = ints 0 .. 1\nbogus c\n", 2, 1},
		{"unknown function", "alphabet c = ints 0 .. 1\ndesc c <- mystery(c)\n", 2, 11},
		{"bad arity", "alphabet c = ints 0 .. 1\ndesc c <- even(c, c)\n", 2, 11},
		{"missing alphabet", "alphabet c = ints 0 .. 1\ndesc c <- even(d)\n", 2, 1},
		{"duplicate alphabet", "alphabet c = ints 0 .. 1\nalphabet c = ints 0 .. 1\ndesc c <- c\n", 2, 10},
		{"empty repeat", "alphabet c = ints 0 .. 1\ndesc c <- repeat []\n", 2, 11},
		{"empty range", "alphabet c = ints 5 .. 2\ndesc c <- c\n", 1, 24},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := CompileSource(tc.src)
			if err == nil {
				t.Fatalf("CompileSource(%q) succeeded, want error", tc.src)
			}
			var e *Error
			if !asError(err, &e) {
				t.Fatalf("error is not *Error: %T (%v)", err, err)
			}
			if e.Line != tc.line || e.Col != tc.col {
				t.Errorf("position = %d:%d, want %d:%d (%v)", e.Line, e.Col, tc.line, tc.col, err)
			}
		})
	}
}

func TestFormatSnippet(t *testing.T) {
	src := "line one\nline two\n"
	if got := FormatSnippet(src, 2); got != "line two" {
		t.Errorf("snippet = %q", got)
	}
	if got := FormatSnippet(src, 99); got != "" {
		t.Errorf("out of range snippet = %q", got)
	}
}

func TestExpectStatements(t *testing.T) {
	src := fig4Src + "expect solutions 1\nexpect solution [(c,0)(c,2)(b,1)(c,1)]\nexpect nonsolution [(c,0)(c,1)(c,2)(b,1)]\n"
	p, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Expects) != 3 {
		t.Fatalf("expects = %d", len(p.Expects))
	}
	res := solver.Enumerate(context.Background(), p.Problem())
	if err := p.CheckExpects(res); err != nil {
		t.Errorf("expectations failed: %v", err)
	}
	// A wrong count is reported with its line.
	bad, err := CompileSource(fig4Src + "expect solutions 7\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.CheckExpects(res); err == nil {
		t.Error("wrong count accepted")
	}
	// A wrong solution expectation.
	bad2, err := CompileSource(fig4Src + "expect solution [(c,1)]\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := bad2.CheckExpects(res); err == nil {
		t.Error("missing solution accepted")
	}
	// A wrong nonsolution expectation.
	bad3, err := CompileSource(fig4Src + "expect nonsolution [(c,0)(c,2)(b,1)(c,1)]\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := bad3.CheckExpects(res); err == nil {
		t.Error("present solution accepted as nonsolution")
	}
}

func TestExpectParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown kind": "alphabet d = {0}\ndesc d <- d\nexpect frobs 3\n",
		"bad count":    "alphabet d = {0}\ndesc d <- d\nexpect solutions x\n",
		"bad trace":    "alphabet d = {0}\ndesc d <- d\nexpect solution [(d 0)]\n",
		"unclosed":     "alphabet d = {0}\ndesc d <- d\nexpect solution [(d,0)\n",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
