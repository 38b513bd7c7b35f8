package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
)

// ConcDoc polices concurrency claims in documentation. A doc comment
// that promises a concurrency invariant — "safe for concurrent use",
// "applied at most once per distinct …", determinism "at any worker
// count" — is an API contract that only the race detector can audit: an
// early evaluator shared by the parallel search's workers carried
// exactly such a comment through a release in which racing workers
// double-applied f and g. This analyzer flags
// any package-level or exported-declaration doc comment making such a
// claim when the package directory contains no *race*_test.go file, so
// every advertised invariant has a -race regression test living next to
// it (the CI invariants job runs those packages with -race).
//
// Suppress with //smoothlint:allow concdoc <reason> when the claim is
// discharged elsewhere (say, a cross-package suite).
var ConcDoc = &Analyzer{ //smoothlint:allow concdoc the doc quotes the phrases it polices; no concurrency claim is being made
	Name: "concdoc",
	Doc:  "doc comments claiming concurrency invariants (safe for concurrent use, at-most-once, worker-count determinism) require a *race*_test.go file in the same package",
	Run:  runConcDoc,
}

// concPhrases are the documented claims that demand a race test. They
// are matched case-insensitively against doc text with line breaks
// folded, so a phrase split across comment lines still counts.
var concPhrases = []string{
	"safe for concurrent use",
	"at most once per distinct",
	"any worker count",
	"concurrency-safe",
	"goroutine-safe",
}

func runConcDoc(pass *Pass) error {
	raceTested := map[string]bool{}
	hasRaceTest := func(pos ast.Node) bool {
		dir := filepath.Dir(pass.Fset.Position(pos.Pos()).Filename)
		if v, ok := raceTested[dir]; ok {
			return v
		}
		matches, err := filepath.Glob(filepath.Join(dir, "*race*_test.go"))
		v := err == nil && anyFile(matches)
		raceTested[dir] = v
		return v
	}
	for _, f := range pass.Files {
		if phrase := claimIn(f.Doc); phrase != "" && !hasRaceTest(f) {
			pass.Reportf(f.Doc.Pos(), "package doc claims %q but the package has no *race*_test.go regression test", phrase)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if phrase := claimIn(d.Doc); phrase != "" && !hasRaceTest(d) {
					pass.Reportf(d.Pos(), "doc of exported %s claims %q but the package has no *race*_test.go regression test", d.Name.Name, phrase)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					name, doc := specNameDoc(spec)
					if name == nil || !name.IsExported() {
						continue
					}
					// A doc comment on the grouping decl covers a sole spec.
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					if phrase := claimIn(doc); phrase != "" && !hasRaceTest(spec) {
						pass.Reportf(spec.Pos(), "doc of exported %s claims %q but the package has no *race*_test.go regression test", name.Name, phrase)
					}
				}
			}
		}
	}
	return nil
}

// specNameDoc extracts the declared name and attached doc from a type,
// value or constant spec.
func specNameDoc(spec ast.Spec) (*ast.Ident, *ast.CommentGroup) {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return s.Name, s.Doc
	case *ast.ValueSpec:
		if len(s.Names) > 0 {
			return s.Names[0], s.Doc
		}
	}
	return nil, nil
}

// claimIn returns the first concurrency phrase found in the comment
// group, or "".
func claimIn(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	text := strings.ToLower(strings.ReplaceAll(doc.Text(), "\n", " "))
	for _, phrase := range concPhrases {
		if strings.Contains(text, phrase) {
			return phrase
		}
	}
	return ""
}

// anyFile reports whether any of the paths is a regular file.
func anyFile(paths []string) bool {
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil && fi.Mode().IsRegular() {
			return true
		}
	}
	return false
}
