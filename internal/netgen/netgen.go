// Package netgen generates the random networks the conformance and
// property sweeps run on: a seeded topology grammar over six families
// (corpus.go, families.go) whose every walk emits two artefacts at once,
// an eqlang source and the operational netsim network, so the paper's
// central correspondence — smooth solutions are the computations — can
// be cross-checked per seed; and a stress tier (stress.go) of
// planner-calibrated large instances. A disagreement on any seed is a
// bug in one of the engines, not in the generator.
package netgen

import (
	"fmt"

	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/netsim"
	"smoothproc/internal/procs"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// mapStage is a deterministic pointwise stage for a SeqFn that is a map.
// The map property is validated at construction time over the declared
// input alphabet, so a non-map function is a reported error with the
// offending stage name — not a panic out of a process body mid-run.
func mapStage(name, in, out string, sf fn.SeqFn, inVals []value.Value) (procs.Entry, []value.Value, error) {
	for _, v := range inVals {
		if sf.Apply(seq.Of(v)).Len() != 1 {
			return procs.Entry{}, nil, fmt.Errorf("stage %s: %s is not a map on input %s", name, sf.Name, v)
		}
	}
	entry := procs.Entry{
		Proc: netsim.Proc{Name: name, Body: func(c *netsim.Ctx) {
			for {
				v, ok := c.Recv(in)
				if !ok {
					return
				}
				if !c.Send(out, sf.Apply(seq.Of(v)).At(0)) {
					return
				}
			}
		}},
		Comp: desc.Component{
			Name:     name,
			Incident: trace.NewChanSet(in, out),
			D:        desc.MustNew(name, fn.ChanFn(out), fn.OnChan(sf, in)),
		},
	}
	image := sf.Apply(seq.Of(inVals...))
	return entry, dedup(image), nil
}

func copyLoop(c *netsim.Ctx, in, out string) {
	for {
		v, ok := c.Recv(in)
		if !ok {
			return
		}
		if !c.Send(out, v) {
			return
		}
	}
}

// dedup removes duplicate values, keeping the first occurrence of each
// and preserving first-seen order. Values are bucketed by Hash64 with an
// Equal fallback inside each bucket, so wide generated alphabets dedup
// in O(n) instead of the old O(n²) pairwise scan.
func dedup(vals []value.Value) []value.Value {
	var out []value.Value
	buckets := make(map[uint64][]value.Value, len(vals))
next:
	for _, v := range vals {
		h := v.Hash64()
		for _, w := range buckets[h] {
			if v.Equal(w) {
				continue next
			}
		}
		buckets[h] = append(buckets[h], v)
		out = append(out, v)
	}
	return out
}
