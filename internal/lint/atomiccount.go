package lint

import (
	"go/ast"
	"go/types"
)

// AtomicCount enforces the counter discipline from the metrics and
// solver instrumentation work: measurement state is touched only
// through its accessors.
//
// Two concrete rules:
//
//  1. sync/atomic struct fields (metrics.Counter.v, Histogram.buckets,
//     …) may be accessed only inside methods of the struct that declares
//     them — everything else must go through Inc/Add/Load/Observe. A
//     stray direct Store can silently un-monotonic a counter.
//
//  2. solver.SearchStats, solver.LevelStats and solver.EvalStats
//     fields may be written only by package solver itself. The stats
//     are exported so reports and baselines can read them; a write from
//     outside the search would cook the books the baseline gate audits.
var AtomicCount = &Analyzer{
	Name: "atomiccount",
	Doc:  "search/metrics counters are touched only via their accessors: no atomic field access outside owner methods, no SearchStats writes outside the solver",
	Run:  runAtomicCount,
}

const solverPath = "smoothproc/internal/solver"

func runAtomicCount(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			recv := receiverNamed(pass, decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					checkAtomicField(pass, n, recv)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						checkStatsWrite(pass, lhs)
					}
				case *ast.IncDecStmt:
					checkStatsWrite(pass, n.X)
				}
				return true
			})
		}
	}
	return nil
}

// receiverNamed returns the named type a method declaration belongs to,
// or nil for functions and non-func declarations.
func receiverNamed(pass *Pass, decl ast.Decl) *types.Named {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// checkAtomicField flags selections of sync/atomic-typed fields outside
// methods of the declaring struct's named type.
func checkAtomicField(pass *Pass, sel *ast.SelectorExpr, recv *types.Named) {
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok || !fromPackage(field.Type(), "sync/atomic") {
		return
	}
	owner := selection.Recv()
	if ptr, ok := owner.(*types.Pointer); ok {
		owner = ptr.Elem()
	}
	ownerNamed, _ := owner.(*types.Named)
	if ownerNamed != nil && recv != nil && ownerNamed.Obj() == recv.Obj() {
		return
	}
	ownerName := "struct"
	if ownerNamed != nil {
		ownerName = ownerNamed.Obj().Name()
	}
	pass.Reportf(sel.Sel.Pos(),
		"atomic field %s.%s accessed outside %s's methods; use the accessor methods",
		ownerName, field.Name(), ownerName)
}

// checkStatsWrite flags assignments and ++/-- on SearchStats, LevelStats
// and EvalStats fields from outside the solver package.
func checkStatsWrite(pass *Pass, lhs ast.Expr) {
	if pass.Pkg.Path() == solverPath {
		return
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return
	}
	for _, name := range []string{"SearchStats", "LevelStats", "EvalStats"} {
		if namedType(tv.Type, solverPath, name) {
			pass.Reportf(sel.Sel.Pos(),
				"write to solver.%s.%s outside the solver; search statistics are read-only to consumers",
				name, sel.Sel.Name)
			return
		}
	}
}
