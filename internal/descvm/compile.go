package descvm

import (
	"fmt"
	"sync"

	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/value"
)

// progCache memoizes Compile per IR identity. A TraceFn's IR pointer is
// allocated once by its constructor and shared by every copy of the
// function value, so it names the function the way fn.SeqLower names a
// sequence primitive. Caching keeps repeated searches of one
// description — the service's steady state, benchmark loops — from
// re-lowering per search. Sound because Progs are immutable: every
// goroutine evaluates one through a Session of its own.
var progCache = struct {
	sync.Mutex
	m map[*fn.TraceIR]*Prog
}{m: map[*fn.TraceIR]*Prog{}}

// progCacheLimit bounds progCache. A long-lived process compiles every
// description it serves, and fuzzers and property tests construct
// thousands of throwaway descriptions whose IR pointers die
// immediately. When the cache reaches the limit, Compile empties it and
// refills it with what is compiled next, so it cannot anchor unbounded
// garbage and the descriptions in current use are cached again.
const progCacheLimit = 1024

// Compile lowers f to a bytecode program. ok is false when the function
// carries no IR — it was built from an opaque combinator (fn.OnChans,
// fn.SubstChan, an fn.ProjectArg that changes what its argument reads)
// and can only be interpreted. Everything the eqlang surface language
// expresses compiles. Results are cached by IR identity, so compiling
// the same description again is a map lookup.
func Compile(f fn.TraceFn) (*Prog, bool) {
	if f.IR == nil {
		return nil, false
	}
	progCache.Lock()
	p, ok := progCache.m[f.IR]
	progCache.Unlock()
	if ok {
		return p, true
	}
	if p, ok = compile(f); !ok {
		return nil, false
	}
	if verifyOnCompile() {
		// Debug/CI mode (SMOOTHPROC_VERIFY=1): a program that fails the
		// static verifier is a compiler bug, never an input condition, so
		// it must not escape into an evaluator.
		if err := Verify(p); err != nil {
			panic(err)
		}
	}
	progCache.Lock()
	defer progCache.Unlock()
	// Concurrent compiles of the same IR may race here; either Prog is
	// correct, and the first one stored is the one every caller gets.
	if got, ok := progCache.m[f.IR]; ok {
		return got, true
	}
	if len(progCache.m) >= progCacheLimit {
		clear(progCache.m)
	}
	progCache.m[f.IR] = p
	return p, true
}

func compile(f fn.TraceFn) (*Prog, bool) {
	c := &compiler{p: &Prog{}, vn: map[string]uint16{}}
	outs, err := c.emit(f.IR)
	if err != nil {
		return nil, false
	}
	p := c.p
	p.outs = outs
	p.names = c.names
	if len(p.outs) != f.Out {
		// The IR disagrees with the declared width — a constructor bug,
		// not an input condition; refuse to compile rather than ship a
		// program of the wrong shape.
		return nil, false
	}
	p.soloChan = -1
	if len(p.code) == 1 && p.code[0].op == opChan &&
		len(p.outs) == 1 && p.outs[0] == p.code[0].dst {
		p.soloChan = int(p.code[0].a)
	}
	return p, true
}

// compiler carries the value-numbering state of one Compile call.
type compiler struct {
	p     *Prog
	vn    map[string]uint16 // structural key → register holding it
	names []string          // per-instruction Disasm label
	uniq  int               // counter for non-CSE-able keys
}

// emit lowers one IR node and returns the registers holding its
// components (one for every node kind except IRPair).
func (c *compiler) emit(ir *fn.TraceIR) ([]uint16, error) {
	switch ir.Kind {
	case fn.IRPair:
		outs := make([]uint16, 0, len(ir.Args))
		for _, a := range ir.Args {
			rs, err := c.emit(a)
			if err != nil {
				return nil, err
			}
			outs = append(outs, rs...)
		}
		return outs, nil

	case fn.IRChan:
		return c.cse("c:"+ir.Chan, func() instr {
			return instr{op: opChan, a: c.addChan(ir.Chan)}
		}, ir.Chan, false)

	case fn.IRConst:
		return c.cse("k:"+ir.Const.String(), func() instr {
			return instr{op: opConst, a: c.addConst(ir.Const)}
		}, ir.Const.String(), true)

	case fn.IROmega:
		return c.cse("w:"+ir.Const.String(), func() instr {
			return instr{op: opOmega, a: c.addConst(ir.Const)}
		}, ir.Const.String()+"^ω", false)

	case fn.IRSeqApply:
		return c.emitSeqApply(ir)

	case fn.IRBiApply:
		return c.emitBiApply(ir)
	}
	return nil, fmt.Errorf("descvm: unknown IR kind %d", ir.Kind)
}

func (c *compiler) emitSeqApply(ir *fn.TraceIR) ([]uint16, error) {
	l := ir.Sf.Lower
	if l != nil && l.Kind == fn.LowerConst {
		// Constant function: the operand is dead, never emit it.
		return c.cse("k:"+l.Const.String(), func() instr {
			return instr{op: opConst, a: c.addConst(l.Const)}
		}, l.Const.String(), true)
	}
	src, err := c.emitArg(ir.Args[0])
	if err != nil {
		return nil, err
	}
	if l == nil {
		// Opaque closure: generic call, no sound identity to CSE on
		// (distinct closures share code pointers), so every use gets its
		// own register.
		c.uniq++
		return c.cse(fmt.Sprintf("u:%d", c.uniq), func() instr {
			return instr{op: opSeqCall, a: c.addSeqFn(ir.Sf), b: src}
		}, ir.Sf.Name, false)
	}
	// Constructor identity: each FilterFn/MapFn/... call allocates one
	// SeqLower, so its pointer names the constructed function (see
	// fn.SeqLower) and two IR nodes with the same Lower and operand
	// compute the same value.
	key := fmt.Sprintf("s:%p:%d", l, src)
	switch l.Kind {
	case fn.LowerFilter:
		return c.cse(key, func() instr {
			return instr{op: opFilter, a: c.addPred(l.Pred), b: src}
		}, ir.Sf.Name, false)
	case fn.LowerMap:
		return c.cse(key, func() instr {
			return instr{op: opMap, a: c.addMap(l.Map), b: src}
		}, ir.Sf.Name, false)
	case fn.LowerTakeWhile:
		return c.cse(key, func() instr {
			return instr{op: opTakeWhile, a: c.addPred(l.Pred), b: src}
		}, ir.Sf.Name, false)
	case fn.LowerPrepend:
		return c.cse(key, func() instr {
			return instr{op: opPrepend, a: c.addConst(l.Const), b: src}
		}, ir.Sf.Name, false)
	}
	return nil, fmt.Errorf("descvm: unknown SeqLower kind %d", l.Kind)
}

func (c *compiler) emitBiApply(ir *fn.TraceIR) ([]uint16, error) {
	a, err := c.emitArg(ir.Args[0])
	if err != nil {
		return nil, err
	}
	b, err := c.emitArg(ir.Args[1])
	if err != nil {
		return nil, err
	}
	if l := ir.Bi.Lower; l != nil {
		key := fmt.Sprintf("z:%p:%d:%d", l, a, b)
		return c.cse(key, func() instr {
			return instr{op: opZip, a: c.addZip(l.Zip), b: a, c: b}
		}, ir.Bi.Name, false)
	}
	c.uniq++
	return c.cse(fmt.Sprintf("u:%d", c.uniq), func() instr {
		return instr{op: opBiCall, a: c.addBiFn(ir.Bi), b: a, c: b}
	}, ir.Bi.Name, false)
}

// emitArg lowers a width-1 operand node.
func (c *compiler) emitArg(ir *fn.TraceIR) (uint16, error) {
	rs, err := c.emit(ir)
	if err != nil {
		return 0, err
	}
	if len(rs) != 1 {
		return 0, fmt.Errorf("descvm: operand of width %d, want 1", len(rs))
	}
	return rs[0], nil
}

// cse returns the register already holding key, or allocates one, emits
// build() targeting it and records it under key. stable marks registers
// whose value is an immutable table constant (skipped by the output
// copy in eval.go).
func (c *compiler) cse(key string, build func() instr, name string, stable bool) ([]uint16, error) {
	if r, ok := c.vn[key]; ok {
		return []uint16{r}, nil
	}
	if c.p.nregs > 0xffff {
		return nil, fmt.Errorf("descvm: register file overflow")
	}
	r := uint16(c.p.nregs)
	c.p.nregs++
	ins := build()
	ins.dst = r
	c.p.code = append(c.p.code, ins)
	c.p.stable = append(c.p.stable, stable)
	c.names = append(c.names, name)
	c.vn[key] = r
	return []uint16{r}, nil
}

func (c *compiler) addChan(ch string) uint16 {
	for i, have := range c.p.chans {
		if have == ch {
			return uint16(i)
		}
	}
	c.p.chans = append(c.p.chans, ch)
	return uint16(len(c.p.chans) - 1)
}

func (c *compiler) addConst(k seq.Seq) uint16 {
	c.p.consts = append(c.p.consts, k)
	return uint16(len(c.p.consts) - 1)
}

func (c *compiler) addPred(f func(v value.Value) bool) uint16 {
	c.p.preds = append(c.p.preds, f)
	return uint16(len(c.p.preds) - 1)
}

func (c *compiler) addMap(f func(v value.Value) value.Value) uint16 {
	c.p.maps = append(c.p.maps, f)
	return uint16(len(c.p.maps) - 1)
}

func (c *compiler) addZip(f func(a, b value.Value) value.Value) uint16 {
	c.p.zips = append(c.p.zips, f)
	return uint16(len(c.p.zips) - 1)
}

func (c *compiler) addSeqFn(f fn.SeqFn) uint16 {
	c.p.seqfns = append(c.p.seqfns, f)
	return uint16(len(c.p.seqfns) - 1)
}

func (c *compiler) addBiFn(f fn.BiSeqFn) uint16 {
	c.p.bifns = append(c.p.bifns, f)
	return uint16(len(c.p.bifns) - 1)
}
