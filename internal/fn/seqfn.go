package fn

import (
	"fmt"

	"smoothproc/internal/seq"
	"smoothproc/internal/value"
)

// SeqFn is a named function on message sequences. Every SeqFn constructed
// by this package is continuous (monotone and lub-preserving) in the
// prefix cpo; the package tests verify monotonicity and chain-continuity
// by property testing, since the paper's theorems assume continuity of
// every function appearing in a description.
//
// Growth bounds how much longer the output can be than the input:
// |Apply(s)| ≤ |s| + Growth. Filters and pointwise maps have Growth 0;
// Prepend(k values) has Growth k. The bound is what makes depth-bounded
// checking against ω-constants sound (see OmegaPad in tracefn.go).
type SeqFn struct {
	Name   string
	Growth int
	Apply  func(seq.Seq) seq.Seq
	// Lower records the function as a specializable primitive for the
	// bytecode backend (see lower.go); nil means only Apply is
	// available and the backend falls back to a generic call.
	Lower *SeqLower
}

// Identity is the identity on sequences.
var Identity = SeqFn{Name: "id", Apply: func(s seq.Seq) seq.Seq { return s }}

// FilterFn builds the continuous filter keeping elements satisfying keep.
func FilterFn(name string, keep func(value.Value) bool) SeqFn {
	return SeqFn{
		Name:  name,
		Apply: func(s seq.Seq) seq.Seq { return s.Filter(keep) },
		Lower: &SeqLower{Kind: LowerFilter, Pred: keep},
	}
}

// MapFn builds the continuous pointwise map of a total function.
func MapFn(name string, f func(value.Value) value.Value) SeqFn {
	return SeqFn{
		Name:  name,
		Apply: func(s seq.Seq) seq.Seq { return s.Map(f) },
		Lower: &SeqLower{Kind: LowerMap, Map: f},
	}
}

// PrependFn builds s ↦ vals ; s — the paper's "0; c" (Section 2.1) and
// "T; b" (Section 4.2). Continuous because the prepended part is constant.
func PrependFn(vals ...value.Value) SeqFn {
	prefix := seq.Of(vals...)
	return SeqFn{
		Name:   fmt.Sprintf("prepend%s", prefix),
		Growth: len(vals),
		Apply:  func(s seq.Seq) seq.Seq { return prefix.Concat(s) },
		Lower:  &SeqLower{Kind: LowerPrepend, Const: prefix},
	}
}

// TakeWhileFn builds the longest-prefix-satisfying function.
func TakeWhileFn(name string, keep func(value.Value) bool) SeqFn {
	return SeqFn{
		Name:  name,
		Apply: func(s seq.Seq) seq.Seq { return s.TakeWhile(keep) },
		Lower: &SeqLower{Kind: LowerTakeWhile, Pred: keep},
	}
}

// ComposeSeq builds g ∘ f (apply f first).
func ComposeSeq(g, f SeqFn) SeqFn {
	return SeqFn{
		Name:   g.Name + "∘" + f.Name,
		Growth: g.Growth + f.Growth,
		Apply:  func(s seq.Seq) seq.Seq { return g.Apply(f.Apply(s)) },
	}
}

// ConstFn ignores its input and returns k. Constant functions are
// trivially continuous; the paper's T̄ (Section 4.3) and "0 2" (Section
// 2.4) are constants.
func ConstFn(k seq.Seq) SeqFn {
	return SeqFn{
		Name:   "const" + k.String(),
		Growth: k.Len(),
		Apply:  func(seq.Seq) seq.Seq { return k },
		Lower:  &SeqLower{Kind: LowerConst, Const: k},
	}
}

// BiSeqFn is a named continuous function of two sequences, such as the
// paper's AND (Section 4.5) and the oracle selections g(c,b), h(c,b) of
// the fork process (Section 4.6).
type BiSeqFn struct {
	Name   string
	Growth int
	Apply  func(a, b seq.Seq) seq.Seq
	// Lower records the function as a specializable primitive for the
	// bytecode backend; nil falls back to a generic Apply call.
	Lower *BiLower
}

// ZipFn lifts a total binary function pointwise, cutting at the shorter
// argument (the strict lifting: output element i exists only when both
// operands do).
func ZipFn(name string, f func(a, b value.Value) value.Value) BiSeqFn {
	return BiSeqFn{
		Name:  name,
		Apply: func(a, b seq.Seq) seq.Seq { return seq.Zip(a, b, f) },
		Lower: &BiLower{Zip: f},
	}
}
