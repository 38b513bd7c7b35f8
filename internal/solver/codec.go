// Checkpoint serialization. A checkpoint is exactly the state the §3.3
// chain view calls a chain element — the classified BFS prefix, the
// retained frontier, the pending queue — with the f each frontier son
// and pending node carries, so a decoded checkpoint resumes to a solve
// byte-identical to one that never left memory, deterministic
// fingerprint (evaluation hit/miss counters included) and all. The blob
// rides on the trace codec: every retained trace is a reference into
// one shared node pool, so the prefix sharing between solutions,
// frontier nodes, their sons and pending nodes costs one spine on disk,
// exactly as in memory.
//
// What is NOT serialized: the Problem's function values (the description
// sides and callbacks). DecodeCheckpoint takes a caller-supplied Problem
// — rebuilt from the stored spec source — and overrides only the bounds
// the blob carries; the search derives its evaluators and its Theorem 1
// fast path from that description, as the capture did. The search
// machinery is rebuilt by re-running newSearch (the Theorem 1
// induction base check re-evaluates both sides at ⊥, as a live capture's
// constructor did); the counters come from the encoded Result alone.
package solver

import (
	"fmt"

	"time"

	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
)

// checkpointVersion guards the body layout; bump on any change.
const checkpointVersion = 5

// Encode serializes the checkpoint into one self-verifying blob (see the
// trace codec for the integrity story). The checkpoint is not locked:
// callers serialize Encode against Resume exactly as they serialize
// resumes against each other.
func (cp *Checkpoint) Encode() ([]byte, error) {
	if cp == nil || cp.s == nil {
		return nil, fmt.Errorf("solver: encode of an empty checkpoint")
	}
	e := trace.NewEncoder()
	e.Uvarint(checkpointVersion)

	// The bounds are restored from the blob.
	p := cp.s.p
	e.Varint(int64(p.MaxDepth))
	e.Varint(int64(p.MaxNodes))

	encodeResult(e, cp.done)

	e.Uvarint(uint64(len(cp.frontier)))
	for _, fe := range cp.frontier {
		e.Trace(fe.node)
		encodeNodes(e, fe.sons)
	}
	encodeNodes(e, cp.pending)
	e.Varint(int64(cp.resumes))
	e.Bool(cp.finaled)
	return e.Bytes(), nil
}

// DecodeCheckpoint rebuilds a checkpoint from Encode's blob. p must be
// the same problem the capture ran (sides rebuilt from the same spec);
// the blob's captured bounds override p.MaxDepth/p.MaxNodes. All
// corruption failures wrap trace.ErrCorrupt.
func DecodeCheckpoint(data []byte, p Problem) (*Checkpoint, error) {
	d, err := trace.NewDecoder(data)
	if err != nil {
		return nil, err
	}
	cp, err := decodeCheckpoint(d, p)
	if err != nil {
		return nil, fmt.Errorf("solver: decode checkpoint: %w", err)
	}
	return cp, nil
}

func decodeCheckpoint(d *trace.Decoder, p Problem) (*Checkpoint, error) {
	v, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if v != checkpointVersion {
		return nil, fmt.Errorf("checkpoint version %d, this build reads %d: %w", v, checkpointVersion, trace.ErrCorrupt)
	}
	maxDepth, err := d.Varint()
	if err != nil {
		return nil, err
	}
	maxNodes, err := d.Varint()
	if err != nil {
		return nil, err
	}
	p.MaxDepth = int(maxDepth)
	p.MaxNodes = int(maxNodes)
	p.OnSolution = nil

	res, err := decodeResult(d)
	if err != nil {
		return nil, err
	}

	nf, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if nf > uint64(d.Remaining())+1 {
		return nil, fmt.Errorf("frontier claims %d entries: %w", nf, trace.ErrCorrupt)
	}
	frontier := make([]frontierEntry, 0, nf)
	for i := uint64(0); i < nf; i++ {
		node, err := d.Trace()
		if err != nil {
			return nil, err
		}
		sons, err := decodeNodes(d)
		if err != nil {
			return nil, err
		}
		frontier = append(frontier, frontierEntry{node: node, sons: sons})
	}
	pending, err := decodeNodes(d)
	if err != nil {
		return nil, err
	}
	resumes, err := d.Varint()
	if err != nil {
		return nil, err
	}
	finaled, err := d.Bool()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}

	// Rebuild the search machinery. The constructor may run the Theorem 1
	// induction base check, applying both sides at ⊥ again (sides are
	// pure, so the root of a capture cut before its first node reads the
	// same values). It counts nothing: the decoded result already holds
	// every application and hit the captured legs made.
	return &Checkpoint{
		s:        newSearch(p),
		done:     res,
		frontier: frontier,
		pending:  pending,
		resumes:  int(resumes),
		finaled:  finaled,
	}, nil
}

func encodeTraces(e *trace.Encoder, ts []trace.Trace) {
	e.Uvarint(uint64(len(ts)))
	for _, t := range ts {
		e.Trace(t)
	}
}

func decodeTraces(d *trace.Decoder) ([]trace.Trace, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	// Each encoded trace costs ≥ 9 bytes (ref + fixed64 key).
	if n > uint64(d.Remaining()/9)+1 {
		return nil, fmt.Errorf("trace list claims %d entries in %d bytes: %w", n, d.Remaining(), trace.ErrCorrupt)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]trace.Trace, 0, n)
	for i := uint64(0); i < n; i++ {
		t, err := d.Trace()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

func encodeResult(e *trace.Encoder, r Result) {
	encodeTraces(e, r.Solutions)
	encodeTraces(e, r.Frontier)
	encodeTraces(e, r.DeadLeaves)
	e.Varint(int64(r.Nodes))
	e.Bool(r.Truncated)
	e.Bool(r.Canceled)
	encodeStats(e, r.Stats)
}

func decodeResult(d *trace.Decoder) (Result, error) {
	var r Result
	var err error
	if r.Solutions, err = decodeTraces(d); err != nil {
		return r, err
	}
	if r.Frontier, err = decodeTraces(d); err != nil {
		return r, err
	}
	if r.DeadLeaves, err = decodeTraces(d); err != nil {
		return r, err
	}
	nodes, err := d.Varint()
	if err != nil {
		return r, err
	}
	r.Nodes = int(nodes)
	if r.Truncated, err = d.Bool(); err != nil {
		return r, err
	}
	if r.Canceled, err = d.Bool(); err != nil {
		return r, err
	}
	if r.Stats, err = decodeStats(d); err != nil {
		return r, err
	}
	return r, nil
}

func encodeStats(e *trace.Encoder, s SearchStats) {
	for _, n := range []int{
		s.Visited, s.Interior, s.Frontier, s.Dead, s.Closed, s.Skipped,
		s.Solutions, s.LimitChecks,
		s.EdgesChecked, s.EdgesKept, s.SubtreesPruned, s.FrontierWitnesses,
		s.RetainedSons, s.Thm1AutoEdges,
	} {
		e.Varint(int64(n))
	}
	e.Bool(s.Thm1FastPath)
	e.Bool(s.CompiledEval)
	e.Varint(int64(s.Elapsed))
	e.Uvarint(uint64(len(s.Levels)))
	for _, l := range s.Levels {
		e.Varint(int64(l.Depth))
		e.Varint(int64(l.Nodes))
		e.Varint(int64(l.Solutions))
		e.Varint(int64(l.Pruned))
	}
	for _, n := range []int64{
		s.Eval.FApplies, s.Eval.GApplies, s.Eval.FHits, s.Eval.GHits,
		s.Eval.FNanos, s.Eval.GNanos,
	} {
		e.Varint(n)
	}
}

func decodeStats(d *trace.Decoder) (SearchStats, error) {
	var s SearchStats
	ints := []*int{
		&s.Visited, &s.Interior, &s.Frontier, &s.Dead, &s.Closed, &s.Skipped,
		&s.Solutions, &s.LimitChecks,
		&s.EdgesChecked, &s.EdgesKept, &s.SubtreesPruned, &s.FrontierWitnesses,
		&s.RetainedSons, &s.Thm1AutoEdges,
	}
	for _, p := range ints {
		n, err := d.Varint()
		if err != nil {
			return s, err
		}
		*p = int(n)
	}
	var err error
	if s.Thm1FastPath, err = d.Bool(); err != nil {
		return s, err
	}
	if s.CompiledEval, err = d.Bool(); err != nil {
		return s, err
	}
	el, err := d.Varint()
	if err != nil {
		return s, err
	}
	s.Elapsed = time.Duration(el)
	nl, err := d.Uvarint()
	if err != nil {
		return s, err
	}
	if nl > uint64(d.Remaining())+1 {
		return s, fmt.Errorf("levels claim %d entries: %w", nl, trace.ErrCorrupt)
	}
	s.Levels = make([]LevelStats, 0, nl)
	for i := uint64(0); i < nl; i++ {
		var l LevelStats
		for _, p := range []*int{&l.Depth, &l.Nodes, &l.Solutions, &l.Pruned} {
			n, err := d.Varint()
			if err != nil {
				return s, err
			}
			*p = int(n)
		}
		s.Levels = append(s.Levels, l)
	}
	evals := []*int64{
		&s.Eval.FApplies, &s.Eval.GApplies, &s.Eval.FHits, &s.Eval.GHits,
		&s.Eval.FNanos, &s.Eval.GNanos,
	}
	for _, p := range evals {
		if *p, err = d.Varint(); err != nil {
			return s, err
		}
	}
	return s, nil
}

// encodeNodes writes queued nodes: each trace, then whether it carries
// f and, if so, the tuple.
func encodeNodes(e *trace.Encoder, ns []node) {
	e.Uvarint(uint64(len(ns)))
	for _, n := range ns {
		e.Trace(n.t)
		e.Bool(n.f != nil)
		if n.f != nil {
			encodeTuple(e, n.f)
		}
	}
}

func decodeNodes(d *trace.Decoder) ([]node, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	// Each encoded node costs ≥ 10 bytes (ref + fixed64 key + flag).
	if n > uint64(d.Remaining()/10)+1 {
		return nil, fmt.Errorf("node list claims %d entries in %d bytes: %w", n, d.Remaining(), trace.ErrCorrupt)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]node, 0, n)
	for i := uint64(0); i < n; i++ {
		var nd node
		if nd.t, err = d.Trace(); err != nil {
			return nil, err
		}
		carried, err := d.Bool()
		if err != nil {
			return nil, err
		}
		if carried {
			if nd.f, err = decodeTuple(d); err != nil {
				return nil, err
			}
		}
		out = append(out, nd)
	}
	return out, nil
}

func encodeTuple(e *trace.Encoder, tu fn.Tuple) {
	e.Uvarint(uint64(len(tu)))
	for _, sq := range tu {
		e.Uvarint(uint64(len(sq)))
		for _, v := range sq {
			e.Value(v)
		}
	}
}

func decodeTuple(d *trace.Decoder) (fn.Tuple, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining())+1 {
		return nil, fmt.Errorf("tuple claims %d seqs: %w", n, trace.ErrCorrupt)
	}
	tu := make(fn.Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		m, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if m > uint64(d.Remaining())+1 {
			return nil, fmt.Errorf("seq claims %d values: %w", m, trace.ErrCorrupt)
		}
		sq := make(seq.Seq, 0, m)
		for j := uint64(0); j < m; j++ {
			v, err := d.Value()
			if err != nil {
				return nil, err
			}
			sq = append(sq, v)
		}
		tu = append(tu, sq)
	}
	return tu, nil
}
