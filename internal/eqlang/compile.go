package eqlang

import (
	"fmt"
	"sync"

	"smoothproc/internal/desc"
	"smoothproc/internal/descvm"
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// Program is a compiled eqlang file: the description system and the
// solver branching data.
type Program struct {
	System desc.System
	// Alphabet maps channels to their candidate messages.
	Alphabet map[string][]value.Value
	// Depth is the requested probe depth (default 6).
	Depth int
	// Expects are the file's self-checks, verified by CheckExpects.
	Expects []ExpectStmt

	problemOnce sync.Once
	problem     solver.Problem
}

// DefaultDepth is used when a file has no depth statement.
const DefaultDepth = 6

// unary builtins by surface name.
var unaryBuiltins = map[string]fn.SeqFn{
	"even":   fn.Even,
	"odd":    fn.Odd,
	"true":   fn.TrueBits,
	"false":  fn.FalseBits,
	"zero":   fn.ZeroTag,
	"one":    fn.OneTag,
	"untilF": fn.UntilF,
	"countT": fn.CountTs,
	"fBA":    fn.FBA,
	"R":      fn.RMap,
	"tag0":   fn.Tag0,
	"tag1":   fn.Tag1,
	"untag":  fn.Untag,
}

// binary builtins by surface name.
var binaryBuiltins = map[string]fn.BiSeqFn{
	"and":   fn.And,
	"nsand": fn.NonStrictAnd,
	"selT":  fn.SelectTrue,
	"selF":  fn.SelectFalse,
}

// Compile turns a parsed file into a Program.
func Compile(f *File) (*Program, error) {
	p := &Program{
		System:   desc.System{Name: "eqlang"},
		Alphabet: map[string][]value.Value{},
		Depth:    f.Depth,
		Expects:  append([]ExpectStmt(nil), f.Expects...),
	}
	if p.Depth == 0 {
		p.Depth = DefaultDepth
	}
	for _, a := range f.Alphabets {
		if _, dup := p.Alphabet[a.Channel]; dup {
			return nil, errfc(a.Line, a.Col, "duplicate alphabet for channel %s", a.Channel)
		}
		p.Alphabet[a.Channel] = a.Values
	}
	for _, d := range f.Descs {
		lhs, err := compileExpr(d.Lhs)
		if err != nil {
			return nil, err
		}
		rhs, err := compileExpr(d.Rhs)
		if err != nil {
			return nil, err
		}
		dd, err := desc.New(d.Name, lhs, rhs)
		if err != nil {
			return nil, errfc(d.Line, d.Col, "%v", err)
		}
		p.System.Descs = append(p.System.Descs, dd)
		// Every channel a description reads needs an alphabet before the
		// solver can branch on it; report at the offending desc.
		for _, side := range []fn.TraceFn{dd.F, dd.G} {
			for _, ch := range side.Support.Names() {
				if _, ok := p.Alphabet[ch]; !ok {
					return nil, errfc(d.Line, d.Col, "channel %s used in %s but has no alphabet statement", ch, d.Name)
				}
			}
		}
	}
	if len(p.System.Descs) == 0 {
		return nil, errfc(1, 1, "no descriptions in file")
	}
	return p, nil
}

// CompileSource parses and compiles in one step.
func CompileSource(src string) (*Program, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(f)
}

// Problem returns the solver problem for the program. The combined
// description is built once and shared by every call: callers receive a
// value copy they may adjust (MaxDepth, MaxNodes, ...), while the
// function identity of the combined sides stays stable — which is what
// lets descvm cache the compiled bytecode per IR across repeated solves
// of one program (the service's steady state).
func (p *Program) Problem() solver.Problem {
	p.problemOnce.Do(func() {
		p.problem = solver.NewProblem(p.System.Combined(), p.Alphabet, p.Depth)
	})
	return p.problem
}

// Bytecode lowers the program's combined sides to descvm programs and
// returns their disassemblies. ok is false when a side cannot be
// lowered (an opaque combinator with no recorded IR) — the solver then
// interprets that side, so a false here is informative, not an error.
func (p *Program) Bytecode() (f, g string, ok bool) {
	d := p.Problem().D
	pf, okf := descvm.Compile(d.F)
	pg, okg := descvm.Compile(d.G)
	if okf {
		f = pf.Disasm()
	}
	if okg {
		g = pg.Disasm()
	}
	return f, g, okf && okg
}

// CheckExpects verifies the file's expect statements against an
// enumeration result, returning the first violated expectation.
func (p *Program) CheckExpects(res solver.Result) error {
	for _, e := range p.Expects {
		switch e.Kind {
		case ExpectCount:
			if res.Solutions.Len() != e.N {
				return fmt.Errorf("eqlang: line %d: expected %d solutions, found %d", e.Line, e.N, res.Solutions.Len())
			}
		case ExpectSolution, ExpectNotSolution:
			tr := traceOfLiteral(e.Trace)
			found := res.Contains(tr)
			if e.Kind == ExpectSolution && !found {
				return fmt.Errorf("eqlang: line %d: expected solution %s not found", e.Line, tr)
			}
			if e.Kind == ExpectNotSolution && found {
				return fmt.Errorf("eqlang: line %d: %s should not be a solution", e.Line, tr)
			}
		}
	}
	return nil
}

func traceOfLiteral(events []TraceEvent) trace.Trace {
	tr := trace.Empty
	for _, e := range events {
		tr = tr.Append(trace.E(e.Ch, e.Val))
	}
	return tr
}

func compileExpr(e Expr) (fn.TraceFn, error) {
	switch n := e.(type) {
	case *ChanExpr:
		return fn.ChanFn(n.Name), nil
	case *ConstExpr:
		return fn.ConstTraceFn(seq.Of(n.Vals...)), nil
	case *RepeatExpr:
		return fn.OmegaConstFn(fmt.Sprintf("repeat%s", seq.Of(n.Period...)), seq.Of(n.Period...)), nil
	case *LinearExpr:
		inner, err := compileExpr(n.Inner)
		if err != nil {
			return fn.TraceFn{}, err
		}
		return fn.ApplySeq(fn.MulAdd(n.A, n.B), inner), nil
	case *ConcatExpr:
		rest, err := compileExpr(n.Rest)
		if err != nil {
			return fn.TraceFn{}, err
		}
		return fn.ApplySeq(fn.PrependFn(n.Prefix...), rest), nil
	case *CallExpr:
		if sf, ok := unaryBuiltins[n.Fn]; ok {
			if len(n.Args) != 1 {
				return fn.TraceFn{}, errfc(n.Line, n.Col, "%s takes 1 argument, got %d", n.Fn, len(n.Args))
			}
			arg, err := compileExpr(n.Args[0])
			if err != nil {
				return fn.TraceFn{}, err
			}
			return fn.ApplySeq(sf, arg), nil
		}
		if bf, ok := binaryBuiltins[n.Fn]; ok {
			if len(n.Args) != 2 {
				return fn.TraceFn{}, errfc(n.Line, n.Col, "%s takes 2 arguments, got %d", n.Fn, len(n.Args))
			}
			a, err := compileExpr(n.Args[0])
			if err != nil {
				return fn.TraceFn{}, err
			}
			b, err := compileExpr(n.Args[1])
			if err != nil {
				return fn.TraceFn{}, err
			}
			return fn.ApplyBi(bf, a, b), nil
		}
		return fn.TraceFn{}, errfc(n.Line, n.Col, "unknown function %q", n.Fn)
	default:
		return fn.TraceFn{}, fmt.Errorf("eqlang: unhandled expression %T", e)
	}
}
