// Package descvm compiles description functions to bytecode.
//
// The paper's Section 3.3 search evaluates the description's continuous
// functions f and g at every tree node; after the trace and scheduler
// work of earlier iterations, interpreting the fn combinator tree is the
// dominant remaining cost — each evaluation pays a closure call, a fresh
// Tuple and a full trace walk per combinator layer. This package lowers
// the combinator tree recorded in fn.TraceIR to a flat register program
// executed by a small VM, with three structural wins the interpreter
// cannot have:
//
//   - a frame that moves instead of reloading: a Session's frame holds
//     the channel histories of a node of a trace.Tree and moves to the
//     next node through their common ancestor, in O(1) for each sibling
//     or son evaluated next — exactly the access pattern of the
//     breadth-first search, where one g(u) application feeds every son
//     u·e — instead of re-walking the trace per channel per evaluation,
//     with each alphabet event's channel looked up once per tree;
//   - common-subexpression elimination: a channel history or a lowered
//     sub-function used by several equations of a system is computed
//     once per evaluation, keyed on constructor identity (see fn.SeqLower);
//   - reused intermediates: every instruction writes through a
//     per-register scratch buffer the frame keeps, and an evaluation
//     returns a view of the output registers in a header the session
//     owns, so it allocates nothing. The view is valid until the
//     session's next call; Session.Keep copies one that must outlive it
//     into an owned Tuple (one backing array plus the Tuple header).
//     Session.ViewSon evaluates a son u·e by one push on the frame
//     based at u, without adding u·e to the tree, and Session.SonLeq is
//     the §3.3 edge check as a frame step: it runs and compares only
//     the components the son's event reaches.
//
// A Session is the one way to run a program. Compiled and interpreted
// evaluation are observably identical — the differential suites (this
// package's tests, the eqlang corpus fuzz and the root parity suite)
// hold them equal on every input, and the solver keeps the interpreter
// as the oracle.
package descvm

import (
	"fmt"
	"strings"

	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/value"
)

// op is a VM opcode. Each specialized opcode inlines one fn.SeqLower
// primitive; opSeqCall/opBiCall are the generic fallback for lowerable
// combinator nodes whose sequence function is an opaque closure.
type op uint8

const (
	opInvalid op = iota
	// opChan: dst = history of channel chans[a] in the input trace.
	opChan
	// opConst: dst = consts[a] (shared, never copied on output).
	opConst
	// opOmega: dst = consts[a] repeated to length rawLen + fn.OmegaPad.
	opOmega
	// opFilter: dst = elements of regs[b] satisfying preds[a].
	opFilter
	// opMap: dst = maps[a] applied pointwise to regs[b].
	opMap
	// opTakeWhile: dst = longest prefix of regs[b] satisfying preds[a].
	opTakeWhile
	// opPrepend: dst = consts[a] followed by regs[b].
	opPrepend
	// opZip: dst = zips[a] applied pointwise to regs[b], regs[c].
	opZip
	// opSeqCall: dst = seqfns[a].Apply(regs[b]) — generic unary call.
	opSeqCall
	// opBiCall: dst = bifns[a].Apply(regs[b], regs[c]) — generic binary.
	opBiCall
)

var opNames = map[op]string{
	opChan: "chan", opConst: "const", opOmega: "omega",
	opFilter: "filter", opMap: "map", opTakeWhile: "takewhile",
	opPrepend: "prepend", opZip: "zip", opSeqCall: "call", opBiCall: "call2",
}

// operands returns how many source registers (b, then c) an op reads.
func (o op) operands() int {
	switch o {
	case opFilter, opMap, opTakeWhile, opPrepend, opSeqCall:
		return 1
	case opZip, opBiCall:
		return 2
	}
	return 0
}

// instr is one register instruction: dst receives the result; a selects
// the operand table entry; b and c name source registers. Instruction i
// writes register i.
type instr struct {
	op op
	// need is the set of channels whose events the edge check must run
	// this instruction for: those reaching an output whose cone holds it
	// (see Prog.reach).
	need         chanMask
	dst, a, b, c uint16
}

// chanMask is a set of channel-table indices, one bit each, with bit
// otherChan standing for every channel outside the table. One byte
// fills the padding after an instr's op, so the mask costs a program no
// memory; a program reading more channels than it has bits for runs
// whole for every event (see Prog.reach).
type chanMask uint8

const (
	otherChan = 7
	allChans  = ^chanMask(0)
)

// chanBit returns the mask bit of channel-table index ci, where ci < 0
// is a channel outside the table.
func chanBit(ci int) chanMask {
	if ci < 0 || ci >= otherChan {
		return 1 << otherChan
	}
	return 1 << ci
}

// Prog is a compiled description function: a flat instruction sequence
// over virtual registers, with operand tables for channels, constants
// and the Go closures of the lowered primitives. A Prog is immutable
// after Compile, so goroutines may share one: all mutable evaluation
// state lives in the frame of a Session (eval.go), one per goroutine,
// never in the Prog.
type Prog struct {
	code   []instr
	nregs  int
	outs   []uint16 // registers forming the output Tuple, in order
	stable []bool   // per-register: result is an immutable table constant

	// soloChan is the channel-table index when the whole program is a
	// single channel projection (one opChan, output width 1) — the shape
	// of a plain `desc e <- a` description — and -1 otherwise. ViewSon
	// then returns the cached history itself as the view, skipping the
	// push/execute/pop cycle.
	soloChan int

	chans  []string
	consts []seq.Seq
	preds  []func(value.Value) bool
	maps   []func(value.Value) value.Value
	zips   []func(a, b value.Value) value.Value
	seqfns []fn.SeqFn
	bifns  []fn.BiSeqFn

	names []string // per-instruction label for Disasm
}

// NumRegs returns the register count — exposed for the opcode tests.
func (p *Prog) NumRegs() int { return p.nregs }

// NumInstrs returns the instruction count — exposed for the CSE tests.
func (p *Prog) NumInstrs() int { return len(p.code) }

// Out returns the width of the output Tuple.
func (p *Prog) Out() int { return len(p.outs) }

// chanIdx returns the channel-table index of ch, or -1. Linear scan: the
// paper's networks have a handful of channels, and a scan beats a map
// lookup at that size on the per-event hot path.
func (p *Prog) chanIdx(ch string) int {
	for i, c := range p.chans {
		if c == ch {
			return i
		}
	}
	return -1
}

// Disasm renders the program one instruction per line, e.g.
//
//	r0 = chan a
//	r1 = filter even r0
//	out r1
//
// The rendering is for tests and debugging; it is not a stable format.
func (p *Prog) Disasm() string {
	var b strings.Builder
	for i, ins := range p.code {
		fmt.Fprintf(&b, "r%d = %s", ins.dst, opNames[ins.op])
		if p.names[i] != "" {
			fmt.Fprintf(&b, " %s", p.names[i])
		}
		switch ins.op.operands() {
		case 1:
			fmt.Fprintf(&b, " r%d", ins.b)
		case 2:
			fmt.Fprintf(&b, " r%d r%d", ins.b, ins.c)
		}
		b.WriteString("\n")
	}
	for _, r := range p.outs {
		fmt.Fprintf(&b, "out r%d\n", r)
	}
	return b.String()
}
