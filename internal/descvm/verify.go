package descvm

import (
	"fmt"
	"os"
	"sync"
)

// Verify statically checks a compiled program's well-formedness: every
// opcode is known, every operand-table index is in bounds for its
// opcode, every source register is defined before it is read, every
// register is written exactly once, by the instruction of its own
// index, every output register is written
// and in range, constant-stability marks sit only on constant loads,
// and the soloChan fast-path claim matches the program shape.
//
// The compiler only emits programs that pass (the package fuzz target
// FuzzVerifyNeverRejectsCompiled holds that invariant), so a Verify
// failure means a compiler bug or a corrupted Prog — never a property
// of the spec being compiled. Verify reads only immutable Prog state
// and is safe to call concurrently.
func Verify(p *Prog) error {
	if p == nil {
		return fmt.Errorf("descvm: verify: nil program")
	}
	if p.nregs != len(p.code) {
		// The compiler allocates exactly one fresh register per emitted
		// instruction; a mismatch means registers that are never written
		// (reads of them would see a previous evaluation's frame state) or
		// double writes.
		return fmt.Errorf("descvm: verify: %d registers for %d instructions", p.nregs, len(p.code))
	}
	if len(p.stable) != len(p.code) {
		return fmt.Errorf("descvm: verify: stable marks cover %d of %d instructions", len(p.stable), len(p.code))
	}
	if len(p.names) != len(p.code) {
		return fmt.Errorf("descvm: verify: disasm names cover %d of %d instructions", len(p.names), len(p.code))
	}
	written := make([]bool, p.nregs)
	for i, ins := range p.code {
		if int(ins.dst) >= p.nregs {
			return fmt.Errorf("descvm: verify: instr %d writes r%d, register file has %d", i, ins.dst, p.nregs)
		}
		if written[ins.dst] {
			return fmt.Errorf("descvm: verify: instr %d rewrites r%d", i, ins.dst)
		}
		if int(ins.dst) != i {
			// The edge check's need masks are read per output register
			// as the mask of the instruction of that index.
			return fmt.Errorf("descvm: verify: instr %d writes r%d, not r%d", i, ins.dst, i)
		}
		readsB, readsC := false, false
		var table string
		var tableLen int
		switch ins.op {
		case opChan:
			table, tableLen = "chan", len(p.chans)
		case opConst, opOmega:
			table, tableLen = "const", len(p.consts)
		case opFilter, opTakeWhile:
			table, tableLen, readsB = "pred", len(p.preds), true
		case opMap:
			table, tableLen, readsB = "map", len(p.maps), true
		case opPrepend:
			table, tableLen, readsB = "const", len(p.consts), true
		case opZip:
			table, tableLen, readsB, readsC = "zip", len(p.zips), true, true
		case opSeqCall:
			table, tableLen, readsB = "seqfn", len(p.seqfns), true
		case opBiCall:
			table, tableLen, readsB, readsC = "bifn", len(p.bifns), true, true
		default:
			return fmt.Errorf("descvm: verify: instr %d has unknown opcode %d", i, ins.op)
		}
		if int(ins.a) >= tableLen {
			return fmt.Errorf("descvm: verify: instr %d (%s) indexes %s table at %d, table has %d",
				i, opNames[ins.op], table, ins.a, tableLen)
		}
		if readsB && !written[ins.b] {
			return fmt.Errorf("descvm: verify: instr %d (%s) reads r%d before it is written", i, opNames[ins.op], ins.b)
		}
		if readsC && !written[ins.c] {
			return fmt.Errorf("descvm: verify: instr %d (%s) reads r%d before it is written", i, opNames[ins.op], ins.c)
		}
		if !readsB && ins.b != 0 {
			return fmt.Errorf("descvm: verify: instr %d (%s) carries a stray b operand r%d", i, opNames[ins.op], ins.b)
		}
		if !readsC && ins.c != 0 {
			return fmt.Errorf("descvm: verify: instr %d (%s) carries a stray c operand r%d", i, opNames[ins.op], ins.c)
		}
		if p.stable[i] && ins.op != opConst {
			// eval.go skips the output copy for stable registers on the
			// grounds that they alias an immutable table constant; any
			// other opcode writes through the scratch buffer, which the
			// next evaluation reuses.
			return fmt.Errorf("descvm: verify: instr %d (%s) is marked stable but is not a const load", i, opNames[ins.op])
		}
		written[ins.dst] = true
	}
	if len(p.outs) == 0 {
		return fmt.Errorf("descvm: verify: no output registers")
	}
	for i, r := range p.outs {
		if int(r) >= p.nregs {
			return fmt.Errorf("descvm: verify: output %d names r%d, register file has %d", i, r, p.nregs)
		}
		if !written[r] {
			return fmt.Errorf("descvm: verify: output %d names r%d, which no instruction writes", i, r)
		}
	}
	for i, f := range p.preds {
		if f == nil {
			return fmt.Errorf("descvm: verify: pred table entry %d is nil", i)
		}
	}
	for i, f := range p.maps {
		if f == nil {
			return fmt.Errorf("descvm: verify: map table entry %d is nil", i)
		}
	}
	for i, f := range p.zips {
		if f == nil {
			return fmt.Errorf("descvm: verify: zip table entry %d is nil", i)
		}
	}
	if p.soloChan >= 0 {
		switch {
		case len(p.code) != 1 || p.code[0].op != opChan:
			return fmt.Errorf("descvm: verify: soloChan claimed on a %d-instruction program", len(p.code))
		case int(p.code[0].a) != p.soloChan:
			return fmt.Errorf("descvm: verify: soloChan %d disagrees with the chan load of %d", p.soloChan, p.code[0].a)
		case len(p.outs) != 1 || p.outs[0] != p.code[0].dst:
			return fmt.Errorf("descvm: verify: soloChan program does not output its single register")
		}
	}
	return nil
}

// verifyOnCompile reports whether every Compile should run the verifier
// on its result and panic on failure — the debug/CI mode, enabled with
// SMOOTHPROC_VERIFY=1. Off by default: Verify is O(program) and Compile
// sits on cached hot paths.
var verifyOnCompile = sync.OnceValue(func() bool {
	return os.Getenv("SMOOTHPROC_VERIFY") != ""
})
