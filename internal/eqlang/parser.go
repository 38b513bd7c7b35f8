package eqlang

import (
	"strconv"

	"smoothproc/internal/value"
)

// maxRangeValues bounds an `ints lo .. hi` alphabet, which the
// compiler materializes value by value: every value is a candidate event
// at every tree node, so a wider range only exhausts memory.
const maxRangeValues = 1 << 16

// AST node kinds. The tree is deliberately small: everything the paper's
// examples need and nothing more. Every node carries its 1-based source
// position (Line, Col) for error messages and specvet diagnostics.

// Expr is an expression node.
type Expr interface {
	exprNode()
	// Pos returns the node's source position.
	Pos() (line, col int)
}

// ChanExpr is a channel-history reference.
type ChanExpr struct {
	Name string
	Line int
	Col  int
}

// CallExpr applies a builtin to argument expressions.
type CallExpr struct {
	Fn   string
	Args []Expr
	Line int
	Col  int
}

// ConstExpr is a finite constant sequence literal.
type ConstExpr struct {
	Vals []value.Value
	Line int
	Col  int
}

// RepeatExpr is an ω-constant with the given period.
type RepeatExpr struct {
	Period []value.Value
	Line   int
	Col    int
}

// LinearExpr is a*inner + b applied pointwise.
type LinearExpr struct {
	A, B  int64
	Inner Expr
	Line  int
	Col   int
}

// ConcatExpr is lit ; rest (the paper's prefixing operator).
type ConcatExpr struct {
	Prefix []value.Value
	Rest   Expr
	Line   int
	Col    int
}

func (*ChanExpr) exprNode()   {}
func (*CallExpr) exprNode()   {}
func (*ConstExpr) exprNode()  {}
func (*RepeatExpr) exprNode() {}
func (*LinearExpr) exprNode() {}
func (*ConcatExpr) exprNode() {}

func (e *ChanExpr) Pos() (int, int)   { return e.Line, e.Col }
func (e *CallExpr) Pos() (int, int)   { return e.Line, e.Col }
func (e *ConstExpr) Pos() (int, int)  { return e.Line, e.Col }
func (e *RepeatExpr) Pos() (int, int) { return e.Line, e.Col }
func (e *LinearExpr) Pos() (int, int) { return e.Line, e.Col }
func (e *ConcatExpr) Pos() (int, int) { return e.Line, e.Col }

// DescStmt is one description: LHS <- RHS.
type DescStmt struct {
	Name     string
	Lhs, Rhs Expr
	Line     int
	Col      int
}

// AlphabetStmt declares a channel's candidate alphabet for the solver.
type AlphabetStmt struct {
	Channel string
	Values  []value.Value
	Line    int
	Col     int
}

// ExpectKind discriminates expect statements.
type ExpectKind int

// The expectation forms.
const (
	// ExpectCount: `expect solutions N` — the enumeration finds exactly
	// N smooth solutions within the file's depth.
	ExpectCount ExpectKind = iota + 1
	// ExpectSolution: `expect solution [(c,0)(c,2)]` — the given trace
	// is among the smooth solutions.
	ExpectSolution
	// ExpectNotSolution: `expect nonsolution [(c,0)]` — the given trace
	// is not a smooth solution.
	ExpectNotSolution
)

// ExpectStmt is one self-check attached to a file.
type ExpectStmt struct {
	Kind  ExpectKind
	N     int
	Trace []TraceEvent
	Line  int
	Col   int
}

// TraceEvent is a parsed (channel, message) literal.
type TraceEvent struct {
	Ch  string
	Val value.Value
}

// File is a parsed source file.
type File struct {
	Descs     []DescStmt
	Alphabets []AlphabetStmt
	Expects   []ExpectStmt
	Depth     int // 0 when unset
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token         { return p.toks[p.pos] }
func (p *parser) next() token         { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k tokenKind) bool { return p.toks[p.pos].kind == k }

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, errt(t, "expected %s, found %s %q", k, t.kind, t.text)
	}
	return t, nil
}

func (p *parser) skipNewlines() {
	for p.at(tokNewline) {
		p.next()
	}
}

// Parse parses a source file.
func Parse(src string) (*File, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f := &File{}
	descIdx := 0
	for {
		p.skipNewlines()
		if p.at(tokEOF) {
			return f, nil
		}
		kw, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		switch kw.text {
		case "desc":
			stmt, err := p.parseDesc(descIdx, kw)
			if err != nil {
				return nil, err
			}
			descIdx++
			f.Descs = append(f.Descs, stmt)
		case "alphabet":
			stmt, err := p.parseAlphabet()
			if err != nil {
				return nil, err
			}
			f.Alphabets = append(f.Alphabets, stmt)
		case "depth":
			n, err := p.expect(tokInt)
			if err != nil {
				return nil, err
			}
			d, err := strconv.Atoi(n.text)
			if err != nil || d < 0 {
				return nil, errt(n, "bad depth %q", n.text)
			}
			f.Depth = d
		case "expect":
			stmt, err := p.parseExpect(kw)
			if err != nil {
				return nil, err
			}
			f.Expects = append(f.Expects, stmt)
		default:
			return nil, errt(kw, "unknown statement %q (want desc, alphabet, or depth)", kw.text)
		}
		if !p.at(tokEOF) {
			if _, err := p.expect(tokNewline); err != nil {
				return nil, err
			}
		}
	}
}

func (p *parser) parseDesc(idx int, kw token) (DescStmt, error) {
	lhs, err := p.parseExpr()
	if err != nil {
		return DescStmt{}, err
	}
	if _, err := p.expect(tokArrow); err != nil {
		return DescStmt{}, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return DescStmt{}, err
	}
	return DescStmt{
		Name: "desc" + strconv.Itoa(idx+1),
		Lhs:  lhs,
		Rhs:  rhs,
		Line: kw.line,
		Col:  kw.col,
	}, nil
}

func (p *parser) parseAlphabet() (AlphabetStmt, error) {
	ch, err := p.expect(tokIdent)
	if err != nil {
		return AlphabetStmt{}, err
	}
	if _, err := p.expect(tokEquals); err != nil {
		return AlphabetStmt{}, err
	}
	stmt := AlphabetStmt{Channel: ch.text, Line: ch.line, Col: ch.col}
	switch {
	case p.at(tokIdent) && p.peek().text == "ints":
		p.next()
		lo, err := p.expect(tokInt)
		if err != nil {
			return stmt, err
		}
		if _, err := p.expect(tokDotDot); err != nil {
			return stmt, err
		}
		hi, err := p.expect(tokInt)
		if err != nil {
			return stmt, err
		}
		loN, _ := strconv.ParseInt(lo.text, 10, 64)
		hiN, _ := strconv.ParseInt(hi.text, 10, 64)
		if hiN < loN {
			return stmt, errt(hi, "empty range %d..%d", loN, hiN)
		}
		if uint64(hiN)-uint64(loN) >= maxRangeValues {
			return stmt, errt(hi, "range %d..%d has more than %d values", loN, hiN, maxRangeValues)
		}
		stmt.Values = value.IntRange(loN, hiN)
	case p.at(tokLBrace):
		p.next()
		for !p.at(tokRBrace) {
			v, err := p.parseValue()
			if err != nil {
				return stmt, err
			}
			stmt.Values = append(stmt.Values, v)
			if p.at(tokComma) {
				p.next()
			}
		}
		p.next() // consume }
		if len(stmt.Values) == 0 {
			return stmt, errt(ch, "empty alphabet for %s", ch.text)
		}
	default:
		t := p.peek()
		return stmt, errt(t, "expected 'ints lo .. hi' or '{v, ...}', found %s", t.kind)
	}
	return stmt, nil
}

// parseExpect parses the forms documented on ExpectKind.
func (p *parser) parseExpect(expectKw token) (ExpectStmt, error) {
	kw, err := p.expect(tokIdent)
	if err != nil {
		return ExpectStmt{}, err
	}
	switch kw.text {
	case "solutions":
		n, err := p.expect(tokInt)
		if err != nil {
			return ExpectStmt{}, err
		}
		count, err := strconv.Atoi(n.text)
		if err != nil || count < 0 {
			return ExpectStmt{}, errt(n, "bad count %q", n.text)
		}
		return ExpectStmt{Kind: ExpectCount, N: count, Line: expectKw.line, Col: expectKw.col}, nil
	case "solution", "nonsolution":
		events, err := p.parseTraceLiteral()
		if err != nil {
			return ExpectStmt{}, err
		}
		kind := ExpectSolution
		if kw.text == "nonsolution" {
			kind = ExpectNotSolution
		}
		return ExpectStmt{Kind: kind, Trace: events, Line: expectKw.line, Col: expectKw.col}, nil
	default:
		return ExpectStmt{}, errt(kw, "unknown expectation %q (want solutions, solution, or nonsolution)", kw.text)
	}
}

// parseTraceLiteral parses [(c,0)(c,2)...]: a bracketed list of
// (channel, message) pairs.
func (p *parser) parseTraceLiteral() ([]TraceEvent, error) {
	if _, err := p.expect(tokLBrack); err != nil {
		return nil, err
	}
	var events []TraceEvent
	for !p.at(tokRBrack) {
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		ch, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return nil, err
		}
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		events = append(events, TraceEvent{Ch: ch.text, Val: v})
	}
	p.next() // consume ]
	return events, nil
}

// parseValue parses a message literal: INT, T, F, a symbol, or a pair
// (v, w).
func (p *parser) parseValue() (value.Value, error) {
	t := p.next()
	switch t.kind {
	case tokInt:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return value.Value{}, errt(t, "bad integer %q", t.text)
		}
		return value.Int(n), nil
	case tokIdent:
		switch t.text {
		case "T":
			return value.T, nil
		case "F":
			return value.F, nil
		default:
			return value.Sym(t.text), nil
		}
	case tokLParen:
		a, err := p.parseValue()
		if err != nil {
			return value.Value{}, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return value.Value{}, err
		}
		b, err := p.parseValue()
		if err != nil {
			return value.Value{}, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return value.Value{}, err
		}
		return value.Pair(a, b), nil
	default:
		return value.Value{}, errt(t, "expected a value, found %s %q", t.kind, t.text)
	}
}

// parseExpr parses concat level: factor (';' concat)?.
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	if !p.at(tokSemi) {
		return left, nil
	}
	semi := p.next()
	rest, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	lit, ok := left.(*ConstExpr)
	if !ok {
		return nil, errt(semi, "left operand of ';' must be a constant literal (the paper's prefixing operator)")
	}
	return &ConcatExpr{Prefix: lit.Vals, Rest: rest, Line: semi.line, Col: semi.col}, nil
}

// parseFactor parses [INT '*'] primary ['+' INT | '-' INT].
func (p *parser) parseFactor() (Expr, error) {
	var a int64 = 1
	at := p.peek()
	scaled := false
	if p.at(tokInt) && p.toks[p.pos+1].kind == tokStar {
		t := p.next()
		p.next() // '*'
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errt(t, "bad integer %q", t.text)
		}
		a = n
		scaled = true
	}
	inner, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	var b int64
	shifted := false
	if p.at(tokPlus) || p.at(tokMinus) {
		op := p.next()
		t, err := p.expect(tokInt)
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errt(t, "bad integer %q", t.text)
		}
		if op.kind == tokMinus {
			n = -n
		}
		b = n
		shifted = true
	}
	if !scaled && !shifted {
		return inner, nil
	}
	return &LinearExpr{A: a, B: b, Inner: inner, Line: at.line, Col: at.col}, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokIdent:
		if t.text == "repeat" {
			vals, err := p.parseBracketList()
			if err != nil {
				return nil, err
			}
			if len(vals) == 0 {
				return nil, errt(t, "repeat needs a nonempty period")
			}
			return &RepeatExpr{Period: vals, Line: t.line, Col: t.col}, nil
		}
		if p.at(tokLParen) {
			p.next()
			var args []Expr
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, arg)
				if p.at(tokComma) {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return &CallExpr{Fn: t.text, Args: args, Line: t.line, Col: t.col}, nil
		}
		return &ChanExpr{Name: t.text, Line: t.line, Col: t.col}, nil
	case tokLBrack:
		p.pos-- // rewind: parseBracketList expects the '['
		vals, err := p.parseBracketList()
		if err != nil {
			return nil, err
		}
		return &ConstExpr{Vals: vals, Line: t.line, Col: t.col}, nil
	case tokLParen:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, errt(t, "expected an expression, found %s %q", t.kind, t.text)
	}
}

func (p *parser) parseBracketList() ([]value.Value, error) {
	if _, err := p.expect(tokLBrack); err != nil {
		return nil, err
	}
	var vals []value.Value
	for !p.at(tokRBrack) {
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		if p.at(tokComma) {
			p.next()
		}
	}
	p.next() // consume ]
	return vals, nil
}
