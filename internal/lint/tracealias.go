package lint

import (
	"go/ast"
	"go/token"
)

// TraceAlias enforces the trace-identity convention: a trace.Trace is a
// persistent, structurally-shared value (an immutable parent-pointer
// spine). The struct is comparable, so `==` compiles — but it compares
// spine pointers, not events: two traces holding the same events built
// along different paths are `!=` under identity while Equal under the
// trace cpo. The same trap applies to maps keyed by trace.Trace.
//
// Flagged shapes (t, u of type trace.Trace):
//
//	t == u, t != u      identity comparison; use Trace.Equal (or
//	                    IsEmpty for the ⊥ test)
//	map[trace.Trace]V   identity-keyed map; key by Trace.Key() (the
//	                    hashed key) or Trace.String()
var TraceAlias = &Analyzer{
	Name: "tracealias",
	Doc:  "forbid identity comparison and identity map keys on trace.Trace; use Trace.Equal/IsEmpty or key by Trace.Key()/String()",
	Run:  runTraceAlias,
}

const tracePath = "smoothproc/internal/trace"

func runTraceAlias(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if isTraceExpr(pass, n.X) || isTraceExpr(pass, n.Y) {
					pass.Reportf(n.Pos(),
						"%s on trace.Trace compares spine identity, not events; use Trace.Equal (or IsEmpty)", n.Op)
				}
			case *ast.MapType:
				if tv, ok := pass.TypesInfo.Types[n.Key]; ok && namedType(tv.Type, tracePath, "Trace") {
					pass.Reportf(n.Key.Pos(),
						"map keyed by trace.Trace uses spine identity; key by Trace.Key() or Trace.String()")
				}
			}
			return true
		})
	}
	return nil
}

// isTraceExpr reports whether e has type trace.Trace.
func isTraceExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && namedType(tv.Type, tracePath, "Trace")
}
