package solver

import (
	"context"
	"sync"
	"sync/atomic"
)

// windowSize bounds how many queued nodes one parallel step visits
// before the loop commits them. Large enough that the per-window
// barrier and goroutine start-up vanish against the node work, small
// enough that a stopped search wastes nothing (a window never outruns
// the node budget, and a cancelled one commits what it finished).
const windowSize = 256

// visitWindow visits nodes — a prefix of the BFS queue — across one
// goroutine per worker (the caller runs the first) and returns how
// many it visited, writing node i's output to outs[i]. Workers check
// the context before each claim and then take the next index from one
// atomic counter, so the visited nodes are always nodes[:k], every one
// of them visited in full; run commits exactly those. Outputs are keyed
// by index, never by arrival, which is what keeps the result
// independent of scheduling. Son slices are fresh: they live until the
// window commits, past the next expand.
func (s *search) visitWindow(ctx context.Context, nodes []node, outs []nodeOut, ws []*worker, capture bool) int {
	var next atomic.Int64
	work := func(w *worker) {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(nodes) {
				return
			}
			outs[i] = w.visit(nodes[i], capture, nil)
		}
	}
	var wg sync.WaitGroup
	for _, w := range ws[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(ws[0])
	wg.Wait()
	return min(int(next.Load()), len(nodes))
}

// merge folds one worker shard's edge, level and evaluation counters
// into the aggregate. Node roles and per-level node counts are accounted
// by commit; shards only carry limit checks, edge fates, per-level
// prunes and the sides' applications, hits and time.
func (s *SearchStats) merge(o SearchStats) {
	s.LimitChecks += o.LimitChecks
	s.EdgesChecked += o.EdgesChecked
	s.EdgesKept += o.EdgesKept
	s.SubtreesPruned += o.SubtreesPruned
	s.FrontierWitnesses += o.FrontierWitnesses
	s.Thm1AutoEdges += o.Thm1AutoEdges
	s.Eval.FApplies += o.Eval.FApplies
	s.Eval.GApplies += o.Eval.GApplies
	s.Eval.FHits += o.Eval.FHits
	s.Eval.GHits += o.Eval.GHits
	s.Eval.FNanos += o.Eval.FNanos
	s.Eval.GNanos += o.Eval.GNanos
	for _, l := range o.Levels {
		dst := s.level(l.Depth)
		dst.Pruned += l.Pruned
	}
}
