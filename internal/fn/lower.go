package fn

import (
	"smoothproc/internal/seq"
	"smoothproc/internal/value"
)

// This file defines the lowering layer between the combinator
// constructors and the bytecode backend (package descvm). Every
// description in the paper is a *denotational object* — a continuous
// function built from a small combinator vocabulary — and the hot path
// of the Section 3.3 tree search evaluates that object at every node.
// Interpreting the combinator tree per evaluation pays a closure call,
// a Tuple allocation and a trace walk per layer; lowering records the
// tree's structure as data so a compiler can turn it into a flat
// program instead. The semantics is unchanged: a lowered function and
// its Apply closure denote the same continuous function, and the
// differential suites (descvm tests, eqlang fuzz, the root parity
// suite) hold the two implementations equal on every input.
//
// Lowering is best-effort by design: combinators wrapping opaque Go
// closures over whole traces (OnChans, SubstChan, and ProjectArg unless
// its argument reads only projected channels) leave IR nil, and
// consumers fall back to the interpreted Apply. Everything the eqlang
// surface language can express is lowerable.

// IRKind discriminates TraceIR nodes. Each kind mirrors exactly one
// combinator constructor of this package.
type IRKind int

const (
	// IRChan is ChanFn: the history of one channel.
	IRChan IRKind = iota + 1
	// IRConst is ConstTraceFn: a finite constant sequence.
	IRConst
	// IROmega is OmegaConstFn: the finite approximation of period^ω,
	// cut at |t| + OmegaPad.
	IROmega
	// IRSeqApply is ApplySeq (and OnChan): a SeqFn post-composed with a
	// width-1 node.
	IRSeqApply
	// IRBiApply is ApplyBi (and OnTwoChans): a BiSeqFn over two width-1
	// nodes.
	IRBiApply
	// IRPair is Pair: concatenation of nodes into a wider tuple.
	IRPair
)

// TraceIR is the structure of a TraceFn as data: the combinator tree
// the constructors built, recorded alongside the Apply closure so a
// backend can lower it. A nil IR means "interpret only".
type TraceIR struct {
	Kind IRKind
	// Chan is the channel name of an IRChan node.
	Chan string
	// Const is the constant of an IRConst node or the period of an
	// IROmega node.
	Const seq.Seq
	// Sf is the sequence function of an IRSeqApply node.
	Sf SeqFn
	// Bi is the binary sequence function of an IRBiApply node.
	Bi BiSeqFn
	// Args are the operand nodes: one for IRSeqApply, two for
	// IRBiApply, any number for IRPair.
	Args []*TraceIR
}

// SeqLowerKind discriminates the specializable sequence primitives.
type SeqLowerKind int

const (
	// LowerFilter is FilterFn: keep the elements satisfying Pred.
	LowerFilter SeqLowerKind = iota + 1
	// LowerMap is MapFn: apply Map pointwise.
	LowerMap
	// LowerPrepend is PrependFn: Const followed by the input.
	LowerPrepend
	// LowerTakeWhile is TakeWhileFn: the longest prefix satisfying Pred.
	LowerTakeWhile
	// LowerConst is ConstFn: ignore the input, return Const.
	LowerConst
)

// SeqLower describes a SeqFn as a specializable primitive. Exactly one
// payload field is meaningful per Kind. Each constructor allocates one
// SeqLower, so pointer identity of the SeqLower is identity of the
// constructed function — the backend keys its common-subexpression
// numbering on it (two MulAdd(2,0) calls are distinct; two copies of
// the package-level Even are the same). A SeqFn with a nil Lower is
// still compilable through its Apply closure, just not specializable.
type SeqLower struct {
	Kind  SeqLowerKind
	Pred  func(v value.Value) bool
	Map   func(v value.Value) value.Value
	Const seq.Seq
}

// BiLower describes a BiSeqFn as a specializable primitive; today the
// only specializable shape is the strict pointwise Zip lifting.
type BiLower struct {
	Zip func(a, b value.Value) value.Value
}
