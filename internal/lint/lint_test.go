package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkSrc type-checks one synthetic file as the package importPath and
// runs the given analyzers over it. The file is named into this package's
// real directory so the source importer resolves smoothproc imports.
func checkSrc(t *testing.T, importPath, src string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join(wd, "synthetic_test_src.go"), src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(importPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	pkg := &Package{Path: importPath, Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
	diags, err := Run([]*Package{pkg}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func messages(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Analyzer+": "+d.Message)
	}
	return out
}

func TestCtxFlow(t *testing.T) {
	src := `package fake

import "context"

func bad() error {
	ctx := context.Background()
	_ = ctx
	todo := context.TODO()
	_ = todo
	return nil
}

func good(ctx context.Context) context.Context {
	sub, cancel := context.WithCancel(ctx)
	defer cancel()
	return sub
}

func annotated() context.Context {
	return context.Background() //smoothlint:allow ctxflow test fixture root
}
`
	diags := checkSrc(t, "smoothproc/internal/fake", src, CtxFlow)
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2 (Background, TODO): %v", len(diags), messages(diags))
	}
	for _, d := range diags {
		if d.Analyzer != "ctxflow" {
			t.Errorf("analyzer = %s", d.Analyzer)
		}
	}
	if diags[0].Pos.Line != 6 || diags[1].Pos.Line != 8 {
		t.Errorf("positions %d,%d, want lines 6,8", diags[0].Pos.Line, diags[1].Pos.Line)
	}
}

// TestCtxFlowSkipsNonInternal: entry-point packages may mint roots.
func TestCtxFlowSkipsNonInternal(t *testing.T) {
	src := `package main

import "context"

func main() { _ = context.Background() }
`
	if diags := checkSrc(t, "smoothproc/cmd/fake", src, CtxFlow); len(diags) != 0 {
		t.Errorf("cmd package flagged: %v", messages(diags))
	}
}

func TestAtomicCountFields(t *testing.T) {
	src := `package fake

import "sync/atomic"

type counter struct {
	v atomic.Int64
}

// Accessors: the only legal touchpoints.
func (c *counter) Inc()        { c.v.Add(1) }
func (c *counter) Load() int64 { return c.v.Load() }

type other struct{}

// A foreign method reaching into counter's atomic is a finding.
func (o *other) steal(c *counter) int64 { return c.v.Load() }

// So is a free function.
func free(c *counter) { c.v.Store(0) }
`
	diags := checkSrc(t, "smoothproc/internal/fake", src, AtomicCount)
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(diags), messages(diags))
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "counter.v") {
			t.Errorf("message %q does not name the field", d.Message)
		}
	}
}

func TestAtomicCountStatsWrites(t *testing.T) {
	src := `package fake

import "smoothproc/internal/solver"

func cook(st *solver.SearchStats) {
	st.EdgesChecked++
	st.Visited = 7
	lvl := st.Levels[0]
	lvl.Pruned = 0
	st.Eval.FApplies = 5
	st.Eval.GHits++
}

func read(st solver.SearchStats) int {
	return st.EdgesChecked + st.EdgesKept + int(st.Eval.CacheHits())
}
`
	diags := checkSrc(t, "smoothproc/internal/fake", src, AtomicCount)
	if len(diags) != 5 {
		t.Fatalf("got %d findings, want 5 writes flagged: %v", len(diags), messages(diags))
	}
	eval := 0
	for _, d := range diags {
		if !strings.Contains(d.Message, "read-only") {
			t.Errorf("unexpected message %q", d.Message)
		}
		if strings.Contains(d.Message, "solver.EvalStats.") {
			eval++
		}
	}
	if eval != 2 {
		t.Errorf("%d findings name solver.EvalStats, want 2: %v", eval, messages(diags))
	}
}

func TestSuppressionRequiresAnalyzerName(t *testing.T) {
	src := `package fake

import "context"

func a() { _ = context.Background() //smoothlint:allow ctxflow reason
}

func b() {
	//smoothlint:allow ctxflow reason on the line above
	_ = context.Background()
}

func c() { _ = context.Background() //smoothlint:allow atomiccount wrong analyzer
}
`
	diags := checkSrc(t, "smoothproc/internal/fake", src, CtxFlow)
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1 (mismatched allow name): %v", len(diags), messages(diags))
	}
	if diags[0].Pos.Line != 13 {
		t.Errorf("surviving finding at line %d, want 13", diags[0].Pos.Line)
	}
}

// TestLoadRepo loads the whole module through the production path and
// asserts the shipped tree is clean — the same gate CI runs via
// cmd/smoothlint.
func TestLoadRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages", len(pkgs))
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
