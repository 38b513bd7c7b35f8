package solver

import (
	"hash/fnv"
)

// Fingerprint condenses a search result into one uint64 covering every
// deterministic observable: the solution, frontier and dead-leaf traces
// (in result order, rendered from the tree's records) and the node/edge/pruning/evaluation counters. Two
// runs of the same problem — interpreted or compiled, cold or resumed —
// must produce equal fingerprints; that is the determinism contract the
// differential suites assert field by field, packed into a value cheap
// enough to log per corpus instance and compare across machines and Go
// versions. Run-configuration flags (Thm1FastPath, CompiledEval) are
// deliberately excluded.
func (r Result) Fingerprint() uint64 {
	h := fnv.New64a()
	writeInt := func(n int) {
		var buf [8]byte
		u := uint64(n)
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	var b []byte
	writeTraces := func(label string, l NodeList) {
		h.Write([]byte(label))
		writeInt(l.Len())
		for i := range l.Len() {
			b = append(l.AppendString(b[:0], i), 0)
			h.Write(b)
		}
	}
	writeTraces("solutions", r.Solutions)
	writeTraces("frontier", r.Frontier)
	writeTraces("dead", r.DeadLeaves)
	writeInt(r.Nodes)
	writeInt(boolInt(r.Truncated))
	writeInt(boolInt(r.Canceled))
	st := r.Stats
	for _, n := range []int{
		st.Visited, st.Interior, st.Frontier, st.Dead, st.Closed,
		st.Skipped, st.Solutions, st.LimitChecks, st.EdgesChecked,
		st.EdgesKept, st.SubtreesPruned, st.FrontierWitnesses,
		st.Thm1AutoEdges, int(st.Eval.CacheHits()), int(st.Eval.CacheMisses()),
	} {
		writeInt(n)
	}
	return h.Sum64()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
