package lint

import (
	"go/ast"
	"go/types"
)

// StoreCheck enforces the durable-store discipline the -data-dir layer
// depends on. Two failure shapes have already bitten similar systems:
//
//  1. A store call whose error is silently dropped — Put in statement
//     position turns "durable" into "probably durable"; a crash between
//     the dropped error and the next read loses state with no trace.
//     Every store error must be handled or deliberately assigned away.
//
//  2. A Store implementation that ignores its context — backends are
//     called on request paths, and an impl that never consults ctx
//     keeps reading disk for clients that hung up. Every interface
//     method must reference its context (the standard backends funnel
//     it through check/ctx.Err()).
var StoreCheck = &Analyzer{
	Name: "storecheck",
	Doc:  "store calls must not drop errors; Store implementations must not ignore their context",
	Run:  runStoreCheck,
}

const storePkgPath = "smoothproc/internal/store"

// storeMethods is the Store interface surface (Close handled too: it
// also returns an error worth keeping).
var storeMethods = map[string]bool{
	"Put": true, "Get": true, "List": true, "Delete": true, "Close": true,
}

func runStoreCheck(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				checkDroppedError(pass, n)
			case *ast.FuncDecl:
				checkIgnoredCtx(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDroppedError flags a statement-position call to a method on a
// store-package type whose results (error included) vanish.
func checkDroppedError(pass *Pass, stmt *ast.ExprStmt) {
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !storeMethods[sel.Sel.Name] {
		return
	}
	recv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || !fromPackage(recv.Type, storePkgPath) {
		return
	}
	fun, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	if !returnsError(fun) {
		return
	}
	pass.Reportf(call.Pos(),
		"error from %s.%s dropped; a swallowed store failure silently loses durable state — handle it or assign it away deliberately",
		recv.Type.String(), sel.Sel.Name)
}

// returnsError reports whether fun's last result is the error type.
func returnsError(fun *types.Func) bool {
	sig, ok := fun.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// checkIgnoredCtx flags a Store interface method implementation whose
// context parameter is blank or never referenced in the body.
func checkIgnoredCtx(pass *Pass, fn *ast.FuncDecl) {
	if fn.Recv == nil || fn.Body == nil || !storeMethods[fn.Name.Name] {
		return
	}
	params := fn.Type.Params
	if params == nil || len(params.List) == 0 {
		return
	}
	first := params.List[0]
	if len(first.Names) != 1 || !isContextType(pass, first.Type) {
		return
	}
	// Only methods that are actually part of the store surface: they must
	// mention a store-package type elsewhere in their signature, so an
	// unrelated cache's Get(ctx, string) stays out of scope.
	if !signatureTouchesStore(pass, fn) {
		return
	}
	ctxName := first.Names[0]
	if ctxName.Name == "_" {
		pass.Reportf(ctxName.Pos(),
			"store %s discards its context; backends run on request paths and must observe cancellation",
			fn.Name.Name)
		return
	}
	ctxObj := pass.TypesInfo.Defs[ctxName]
	if ctxObj == nil {
		return
	}
	used := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ctxObj {
			used = true
			return false
		}
		return !used
	})
	if !used {
		pass.Reportf(ctxName.Pos(),
			"store %s never consults ctx %s; backends run on request paths and must observe cancellation (check ctx.Err() or pass it on)",
			fn.Name.Name, ctxName.Name)
	}
}

// isContextType reports whether the expression's type is context.Context.
func isContextType(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && namedType(tv.Type, "context", "Context")
}

// signatureTouchesStore reports whether any non-context parameter or any
// result of fn is typed from the store package, or the receiver is.
func signatureTouchesStore(pass *Pass, fn *ast.FuncDecl) bool {
	if recv := fn.Recv; recv != nil && len(recv.List) == 1 {
		if tv, ok := pass.TypesInfo.Types[recv.List[0].Type]; ok && fromPackage(tv.Type, storePkgPath) {
			return true
		}
	}
	touches := func(fields *ast.FieldList) bool {
		if fields == nil {
			return false
		}
		for _, f := range fields.List {
			if tv, ok := pass.TypesInfo.Types[f.Type]; ok && fromPackage(tv.Type, storePkgPath) {
				return true
			}
		}
		return false
	}
	return touches(fn.Type.Params) || touches(fn.Type.Results)
}
