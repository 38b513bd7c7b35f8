// Package lint is a small go/analysis-style framework plus the custom
// analyzers behind cmd/smoothlint. It enforces repository invariants the
// compiler cannot: contexts must be threaded (no detached roots in
// library code), search/metrics counters must go through their atomic
// accessors, and shared trace values must never be mutated or aliased in
// place.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis —
// an Analyzer with a Run(*Pass) hook reporting positioned diagnostics —
// but is self-contained on the standard library (go/ast, go/types and
// the source importer), so the linter builds with no dependencies
// outside the Go distribution.
//
// A finding can be suppressed with an annotation on the offending line
// or the line above it:
//
//	//smoothlint:allow ctxflow <reason>
//
// The reason is required by convention: every detached context root and
// every in-place trace edit must say why it is safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in output and in
	// //smoothlint:allow annotations.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the repository's analyzer set in stable order.
func All() []*Analyzer {
	return []*Analyzer{CtxFlow, AtomicCount, ConcDoc, CompileOK, StoreCheck}
}

// Run applies the analyzers to every package and returns the surviving
// findings sorted by position. Findings on a line carrying (or directly
// below) a matching //smoothlint:allow annotation are dropped.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allowed := allowLines(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				report: func(d Diagnostic) {
					if allowed[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
						allowed[allowKey{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}] {
						return
					}
					diags = append(diags, d)
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// allowKey addresses one (file, line, analyzer) suppression.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowLines collects //smoothlint:allow annotations per source line.
func allowLines(pkg *Package) map[allowKey]bool {
	allowed := map[allowKey]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//smoothlint:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range strings.Split(fields[0], ",") {
					allowed[allowKey{pos.Filename, pos.Line, name}] = true
				}
			}
		}
	}
	return allowed
}

// namedType reports whether t (after stripping pointers) is the named
// type pkgPath.name.
func namedType(t types.Type, pkgPath, name string) bool {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// fromPackage reports whether t (after stripping pointers and arrays) is
// a named type declared in pkgPath.
func fromPackage(t types.Type, pkgPath string) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			n, ok := t.(*types.Named)
			if !ok {
				return false
			}
			obj := n.Obj()
			return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
		}
	}
}
