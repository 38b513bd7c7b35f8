// Package smoothproc is a Go implementation of Jayadev Misra's
// "Equational Reasoning About Nondeterministic Processes" (PODC 1989):
// descriptions f ⟵ g of nondeterministic message-passing processes, their
// smooth solutions, the composition and variable-elimination theorems, a
// smooth-solution enumerator (the Section 3.3 tree), Kahn's deterministic
// special case, and an operational dataflow runtime for checking that
// smooth solutions correspond to computations and vice versa.
//
// This package is the public facade: it re-exports the curated surface of
// the internal packages so that the examples and command-line tools read
// like downstream code. The layering underneath is
//
//	value   — message datums (ints, T/F bits, symbols, tagged pairs)
//	seq     — the cpo of message sequences under prefix order
//	cpo     — generic domains, Kleene fixpoints, Section 6 machinery
//	trace   — communication histories, projection, facts F1-F5
//	fn      — the paper's continuous-function vocabulary
//	desc    — descriptions, smooth solutions, Theorems 1, 2, 5, 6
//	solver  — the Section 3.3 tree search
//	kahn    — deterministic networks and Theorem 4
//	netsim  — the operational runtime (scheduled goroutine networks)
//	procs   — the catalogue of every process in the paper
//	check   — conformance harness (smooth ⇔ computation)
//	eqlang  — a small surface language for writing descriptions
//
// A two-minute tour:
//
//	// even(d) ⟵ b, odd(d) ⟵ c — the discriminated fair merge (Fig 2).
//	dfm := smoothproc.Combine("dfm",
//		smoothproc.MustNewDescription("even", smoothproc.OnChan(smoothproc.Even, "d"), smoothproc.ChanFn("b")),
//		smoothproc.MustNewDescription("odd", smoothproc.OnChan(smoothproc.Odd, "d"), smoothproc.ChanFn("c")),
//	)
//	problem := smoothproc.NewProblem(dfm, map[string][]smoothproc.Value{
//		"b": smoothproc.Ints(0, 2), "c": smoothproc.Ints(1), "d": smoothproc.Ints(0, 1, 2),
//	}, 6)
//	result := smoothproc.Enumerate(context.Background(), problem)
//	// result.Solutions are exactly the quiescent traces of the process.
package smoothproc

import (
	"smoothproc/internal/check"
	"smoothproc/internal/desc"
	"smoothproc/internal/eqlang"
	"smoothproc/internal/fn"
	"smoothproc/internal/kahn"
	"smoothproc/internal/netsim"
	"smoothproc/internal/seq"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// Message values.
type (
	// Value is a message datum.
	Value = value.Value
)

// Value constructors and helpers.
var (
	Int      = value.Int
	Bool     = value.Bool
	Sym      = value.Sym
	PairOf   = value.Pair
	T        = value.T
	F        = value.F
	Ints     = value.Ints
	Bools    = value.Bools
	IntRange = value.IntRange
)

// Sequences and traces.
type (
	// Seq is a finite message sequence, the paper's channel history.
	Seq = seq.Seq
	// Event is one send: (channel, message).
	Event = trace.Event
	// Trace is a communication history.
	Trace = trace.Trace
	// Gen generates the finite prefixes of a possibly-infinite trace.
	Gen = trace.Gen
	// ChanSet is a set of channel names.
	ChanSet = trace.ChanSet
)

// Sequence and trace constructors.
var (
	SeqOf      = seq.Of
	SeqOfInts  = seq.OfInts
	SeqOfBools = seq.OfBools
	EmptySeq   = seq.Empty
	E          = trace.E
	TraceOf    = trace.Of
	EmptyTrace = trace.Empty
	NewChanSet = trace.NewChanSet
	FiniteGen  = trace.FiniteGen
	CycleGen   = trace.CycleGen
	FuncGen    = trace.FuncGen
	BlockGen   = trace.BlockGen
)

// The continuous-function vocabulary.
type (
	// SeqFn is a continuous function on sequences.
	SeqFn = fn.SeqFn
	// BiSeqFn is a continuous binary function on sequences.
	BiSeqFn = fn.BiSeqFn
	// TraceFn is a continuous function from traces to sequence tuples.
	TraceFn = fn.TraceFn
	// Tuple is an element of the codomain Seq^k.
	Tuple = fn.Tuple
)

// Vocabulary and combinators (see the paper sections cited on each).
var (
	Even         = fn.Even
	Odd          = fn.Odd
	TrueBits     = fn.TrueBits
	FalseBits    = fn.FalseBits
	ZeroTag      = fn.ZeroTag
	OneTag       = fn.OneTag
	Double       = fn.Double
	DoublePlus1  = fn.DoublePlus1
	MulAdd       = fn.MulAdd
	RMap         = fn.RMap
	UntilF       = fn.UntilF
	CountTs      = fn.CountTs
	Tag0         = fn.Tag0
	Tag1         = fn.Tag1
	Untag        = fn.Untag
	And          = fn.And
	NonStrictAnd = fn.NonStrictAnd
	SelectTrue   = fn.SelectTrue
	SelectFalse  = fn.SelectFalse
	FBA          = fn.FBA

	ChanFn       = fn.ChanFn
	OnChan       = fn.OnChan
	OnChans      = fn.OnChans
	OnTwoChans   = fn.OnTwoChans
	ConstTraceFn = fn.ConstTraceFn
	OmegaConstFn = fn.OmegaConstFn
	PairFns      = fn.Pair
	ApplySeq     = fn.ApplySeq
	ApplyBi      = fn.ApplyBi
	PrependFn    = fn.PrependFn
	FilterFn     = fn.FilterFn
	MapFn        = fn.MapFn
	ComposeSeq   = fn.ComposeSeq
	ConstFn      = fn.ConstFn
)

// Descriptions and their theory.
type (
	// Description is the paper's f ⟵ g pair.
	Description = desc.Description
	// System is a set of descriptions read conjunctively.
	System = desc.System
	// Component is one process of a network (Theorem 2).
	Component = desc.Component
	// DescNetwork is a network of components.
	DescNetwork = desc.Network
	// OmegaVerdict is the depth-bounded ω-solution certificate.
	OmegaVerdict = desc.OmegaVerdict
)

// Description constructors and theorems.
var (
	NewDescription     = desc.New
	MustNewDescription = desc.MustNew
	Combine            = desc.Combine
	ComposeNetwork     = desc.Compose
	Eliminate          = desc.Eliminate
	CheckTheorem5      = desc.CheckTheorem5
	Theorem6Witness    = desc.Theorem6Witness
	ErrNotSmooth       = desc.ErrNotSmooth
)

// The Section 3.3 solver.
type (
	// Problem is a description plus finite branching data.
	Problem = solver.Problem
	// Result is a bounded tree exploration.
	Result = solver.Result
)

// Solver entry points.
var (
	NewProblem      = solver.NewProblem
	Enumerate       = solver.Enumerate
	SampleSolutions = solver.Sample
	IsTreeNode      = solver.IsTreeNode
	CheckInduction  = solver.CheckInduction
)

// Kahn's deterministic special case (Section 6).
type (
	// Equations is a Kahn system x = h(x).
	Equations = kahn.Equations
	// Env is a channel environment.
	Env = kahn.Env
)

// Kahn helpers.
var (
	CheckTheorem4Trace = kahn.CheckTheorem4Trace
	TwoCopyEquations   = kahn.TwoCopyEquations
	SeededCopyEqs      = kahn.SeededCopyEquations
)

// The operational runtime.
type (
	// Proc is an operational process body.
	Proc = netsim.Proc
	// Spec is an operational network.
	Spec = netsim.Spec
	// Ctx is a process's runtime handle.
	Ctx = netsim.Ctx
	// RunResult reports one run.
	RunResult = netsim.Result
	// Limits bounds a run.
	Limits = netsim.Limits
	// Decider resolves nondeterminism.
	Decider = netsim.Decider
	// RealizeOpts bounds realization searches.
	RealizeOpts = netsim.RealizeOpts
	// SendAlt is one send alternative of a Select.
	SendAlt = netsim.SendAlt
	// Alt reports which Select alternative fired.
	Alt = netsim.Alt
)

// Runtime entry points.
var (
	Run              = netsim.Run
	RunContext       = netsim.RunContext
	Realize          = netsim.Realize
	QuiescentTraces  = netsim.QuiescentTraces
	Histories        = netsim.Histories
	Feeder           = netsim.Feeder
	NewRandomDecider = netsim.NewRandomDecider
	NewScriptDecider = netsim.NewScriptDecider
)

// Conformance harness.
type (
	// Conformance compares the two views of one process or network.
	Conformance = check.Conformance
)

// Conformance helpers.
var (
	RandomRunsAreSmooth    = check.RandomRunsAreSmooth
	SolutionsAreRealizable = check.SolutionsAreRealizable
)

// The eqlang surface language.
type (
	// EqProgram is a compiled eqlang file.
	EqProgram = eqlang.Program
)

// Eqlang entry point.
var (
	CompileEqlang = eqlang.CompileSource
)
