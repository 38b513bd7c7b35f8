// Package value defines the universal message datum carried on channels.
//
// The paper ("Equational Reasoning About Nondeterministic Processes",
// Misra 1989) works with several message alphabets: integers (Figures 1-4,
// 7), the booleans T and F (Sections 4.2-4.9), and tagged pairs such as
// (0, n) used by the fair-merge implementation of Section 4.10. Value is a
// small algebraic datatype covering all of them, with a total order so
// that traces can be canonicalised, deduplicated and used as map keys.
package value

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the variants of Value.
type Kind int32

// The message variants, in the order used by Compare.
const (
	KindInt Kind = iota + 1
	KindBool
	KindSym
	KindPair
)

// String returns the name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	case KindSym:
		return "sym"
	case KindPair:
		return "pair"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is an immutable message datum. The zero Value is not valid; use
// one of the constructors. Values are compared with Equal/Compare, never
// with ==: symbols and pairs live behind a pointer, so == would compare
// addresses, and the leading zero-size func field makes it a compile
// error.
//
// The layout is three words: the kind beside a 32-bit first component,
// an integer payload (an int, or a bool as 0 or 1) and a pointer that is
// nil for ints and bools. Every trace event, carried f tuple and VM
// frame history holds Values, and almost all of them are ints, bools or
// pairs, so the one pointer word is what the garbage collector scans. A
// pair of ints whose first fits in 32 bits — every tagged message
// (0, n) and (1, n) of Section 4.10 — is packed into the first two words
// with a nil pointer, so building one allocates nothing; any other pair
// is one allocation. Pair picks the packed form whenever it fits, so
// each pair has one representation.
type Value struct {
	_    [0]func() // first, so it adds no padding
	kind Kind
	fst  int32 // a packed pair's first component
	i    int64
	x    *ext
}

// ext is the out-of-line payload of a symbol (s) or a pair (fst, snd).
type ext struct {
	s        string
	fst, snd Value
}

// Int returns an integer message.
func Int(n int64) Value { return Value{kind: KindInt, i: n} }

// Bool returns a boolean message (the paper's T / F).
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, i: 1}
	}
	return Value{kind: KindBool}
}

// T is the paper's "tick" / true bit.
var T = Bool(true)

// F is the paper's false bit.
var F = Bool(false)

// Sym returns a symbolic message, used for uninterpreted alphabets
// (e.g. the CHAOS example of Section 4.1).
func Sym(s string) Value { return Value{kind: KindSym, x: &ext{s: s}} }

// Pair returns a pair message, e.g. the tagged values (0, n) and (1, n)
// of the fair-merge network (Section 4.10, Figure 7).
func Pair(a, b Value) Value {
	if a.kind == KindInt && b.kind == KindInt && int64(int32(a.i)) == a.i {
		return Value{kind: KindPair, fst: int32(a.i), i: b.i}
	}
	return Value{kind: KindPair, x: &ext{fst: a, snd: b}}
}

// pair returns the components of a pair, packed or not.
func (v Value) pair() (Value, Value) {
	if v.x == nil {
		return Int(int64(v.fst)), Int(v.i)
	}
	return v.x.fst, v.x.snd
}

// Kind reports the variant of v.
func (v Value) Kind() Kind { return v.kind }

// IsZero reports whether v is the invalid zero Value.
func (v Value) IsZero() bool { return v.kind == 0 }

// AsInt returns the integer payload. It reports false if v is not an int.
func (v Value) AsInt() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return v.i, true
}

// MustInt returns the integer payload and panics if v is not an int.
// Use only where the alphabet is known to be integral.
func (v Value) MustInt() int64 {
	n, ok := v.AsInt()
	if !ok {
		panic(fmt.Sprintf("value: MustInt on %s", v))
	}
	return n
}

// AsBool returns the boolean payload. It reports false if v is not a bool.
func (v Value) AsBool() (bool, bool) {
	if v.kind != KindBool {
		return false, false
	}
	return v.i != 0, true
}

// AsSym returns the symbol payload. It reports false if v is not a symbol.
func (v Value) AsSym() (string, bool) {
	if v.kind != KindSym {
		return "", false
	}
	return v.x.s, true
}

// AsPair returns the components of a pair. It reports false if v is not
// a pair.
func (v Value) AsPair() (Value, Value, bool) {
	if v.kind != KindPair {
		return Value{}, Value{}, false
	}
	a, b := v.pair()
	return a, b, true
}

// First returns the first component of a pair and panics otherwise.
func (v Value) First() Value {
	a, _, ok := v.AsPair()
	if !ok {
		panic(fmt.Sprintf("value: First on %s", v))
	}
	return a
}

// Second returns the second component of a pair and panics otherwise.
func (v Value) Second() Value {
	_, b, ok := v.AsPair()
	if !ok {
		panic(fmt.Sprintf("value: Second on %s", v))
	}
	return b
}

// IsTrue reports whether v is the boolean T.
func (v Value) IsTrue() bool { return v.kind == KindBool && v.i != 0 }

// IsFalse reports whether v is the boolean F.
func (v Value) IsFalse() bool { return v.kind == KindBool && v.i == 0 }

// IsEvenInt reports whether v is an even integer (the dfm input alphabet
// on channel b, Section 2.2).
func (v Value) IsEvenInt() bool {
	n, ok := v.AsInt()
	return ok && n%2 == 0
}

// IsOddInt reports whether v is an odd integer (the dfm input alphabet on
// channel c, Section 2.2). Negative odd integers count as odd, matching
// the paper's example sequence z whose first element is -1.
func (v Value) IsOddInt() bool {
	n, ok := v.AsInt()
	return ok && n%2 != 0
}

// Equal reports structural equality.
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

// Compare imposes a total order: by kind first, then by payload. Pairs
// compare lexicographically. The order has no semantic meaning in the
// paper; it exists so enumerations are deterministic.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		return int(v.kind) - int(w.kind)
	}
	switch v.kind {
	case KindInt, KindBool:
		// F < T, as 0 < 1.
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		default:
			return 0
		}
	case KindSym:
		return strings.Compare(v.x.s, w.x.s)
	case KindPair:
		v1, v2 := v.pair()
		w1, w2 := w.pair()
		if c := v1.Compare(w1); c != 0 {
			return c
		}
		return v2.Compare(w2)
	default:
		return 0
	}
}

// String renders v in the concrete syntax accepted by Parse:
// integers as decimal, booleans as T / F, symbols bare, pairs as (a,b).
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindBool:
		if v.i != 0 {
			return "T"
		}
		return "F"
	case KindSym:
		return v.x.s
	case KindPair:
		a, b := v.pair()
		return "(" + a.String() + "," + b.String() + ")"
	default:
		return "<invalid>"
	}
}

// AppendTo appends String's rendering of v to b and returns the extended
// slice. Hot paths use this to render values without intermediate
// string allocations.
func (v Value) AppendTo(b []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(b, v.i, 10)
	case KindBool:
		if v.i != 0 {
			return append(b, 'T')
		}
		return append(b, 'F')
	case KindSym:
		return append(b, v.x.s...)
	case KindPair:
		fst, snd := v.pair()
		b = append(b, '(')
		b = fst.AppendTo(b)
		b = append(b, ',')
		b = snd.AppendTo(b)
		return append(b, ')')
	default:
		return append(b, "<invalid>"...)
	}
}

// hashMix is a splitmix64-style finalizer step combining an accumulator
// with one 64-bit word. It is order-sensitive (hashMix(hashMix(s,a),b) ≠
// hashMix(hashMix(s,b),a) in general), which is what sequence and trace
// hashing need.
func hashMix(h, x uint64) uint64 {
	z := h + 0x9e3779b97f4a7c15 + x
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// HashMix exposes the mixing step for the other hashing hooks (trace
// events, sequences) so every structural hash in the repository chains
// the same way.
func HashMix(h, x uint64) uint64 { return hashMix(h, x) }

// HashString folds a string into an accumulator, FNV-1a style, then
// mixes in the length so "ab"+"c" and "a"+"bc" land apart when chained.
func HashString(h uint64, s string) uint64 {
	const prime = 1099511628211
	f := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		f ^= uint64(s[i])
		f *= prime
	}
	return hashMix(h, hashMix(f, uint64(len(s))))
}

// Hash64 returns a 64-bit structural hash of v: equal values hash equal,
// and the hash is computed from the structure directly (no rendering).
// It backs the O(1) (hash, length) keys of package trace.
func (v Value) Hash64() uint64 {
	switch v.kind {
	case KindInt, KindBool:
		// A bool's payload is 0 or 1, the word it has always hashed.
		return hashMix(uint64(v.kind), uint64(v.i))
	case KindSym:
		return HashString(uint64(v.kind), v.x.s)
	case KindPair:
		a, b := v.pair()
		return hashMix(uint64(v.kind), hashMix(a.Hash64(), b.Hash64()))
	default:
		return hashMix(0, 0)
	}
}

// Parse reads a Value from its String form. Symbols must start with a
// lowercase letter to avoid colliding with T and F.
func Parse(s string) (Value, error) {
	v, rest, err := parseValue(strings.TrimSpace(s))
	if err != nil {
		return Value{}, err
	}
	if strings.TrimSpace(rest) != "" {
		return Value{}, fmt.Errorf("value: trailing input %q after %s", rest, v)
	}
	return v, nil
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(s string) Value {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

func parseValue(s string) (Value, string, error) {
	if s == "" {
		return Value{}, "", fmt.Errorf("value: empty input")
	}
	switch {
	case s[0] == '(':
		a, rest, err := parseValue(strings.TrimSpace(s[1:]))
		if err != nil {
			return Value{}, "", fmt.Errorf("value: pair first: %w", err)
		}
		rest = strings.TrimSpace(rest)
		if rest == "" || rest[0] != ',' {
			return Value{}, "", fmt.Errorf("value: expected ',' in pair at %q", rest)
		}
		b, rest, err := parseValue(strings.TrimSpace(rest[1:]))
		if err != nil {
			return Value{}, "", fmt.Errorf("value: pair second: %w", err)
		}
		rest = strings.TrimSpace(rest)
		if rest == "" || rest[0] != ')' {
			return Value{}, "", fmt.Errorf("value: expected ')' in pair at %q", rest)
		}
		return Pair(a, b), rest[1:], nil
	case s[0] == 'T' && (len(s) == 1 || !isWordByte(s[1])):
		return T, s[1:], nil
	case s[0] == 'F' && (len(s) == 1 || !isWordByte(s[1])):
		return F, s[1:], nil
	case s[0] == '-' || (s[0] >= '0' && s[0] <= '9'):
		i := 1
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		n, err := strconv.ParseInt(s[:i], 10, 64)
		if err != nil {
			return Value{}, "", fmt.Errorf("value: bad integer %q: %w", s[:i], err)
		}
		return Int(n), s[i:], nil
	case s[0] >= 'a' && s[0] <= 'z':
		i := 1
		for i < len(s) && isWordByte(s[i]) {
			i++
		}
		return Sym(s[:i]), s[i:], nil
	default:
		return Value{}, "", fmt.Errorf("value: cannot parse %q", s)
	}
}

func isWordByte(b byte) bool {
	return b == '_' || (b >= '0' && b <= '9') || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

// Ints converts a slice of machine integers into message values.
func Ints(ns ...int64) []Value {
	vs := make([]Value, len(ns))
	for i, n := range ns {
		vs[i] = Int(n)
	}
	return vs
}

// Bools converts a slice of machine booleans into message values.
func Bools(bs ...bool) []Value {
	vs := make([]Value, len(bs))
	for i, b := range bs {
		vs[i] = Bool(b)
	}
	return vs
}

// IntRange returns the integer alphabet lo..hi inclusive, used to give the
// Section 3.3 solver a finite branching alphabet.
func IntRange(lo, hi int64) []Value {
	if hi < lo {
		return nil
	}
	vs := make([]Value, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		vs = append(vs, Int(n))
	}
	return vs
}
