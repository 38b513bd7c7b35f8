package desc

import (
	"sync"
	"testing"
)

// TestEvaluatorConcurrent hammers one evaluator from several goroutines —
// the parallel window visit's sharing pattern, interpreted and compiled
// — and checks the results stay correct and the books balance: EvalStats
// is documented safe for concurrent use, and CI runs this under -race.
func TestEvaluatorConcurrent(t *testing.T) {
	const workers, rounds = 8, 200
	d := evalTestDesc()
	traces := evalTestTraces()
	for _, compiled := range []bool{false, true} {
		e := NewEvaluator(d, EvalOptions{Compiled: compiled})
		var wg sync.WaitGroup
		errs := make(chan string, 64)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					tr := traces[i%len(traces)]
					if !e.F(tr).Equal(d.F.Apply(tr)) {
						select {
						case errs <- "F mismatch on " + tr.String():
						default:
						}
					}
					if !e.G(tr).Equal(d.G.Apply(tr)) {
						select {
						case errs <- "G mismatch on " + tr.String():
						default:
						}
					}
					e.FHit()
					e.GHit()
				}
			}()
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Errorf("compiled=%v: %s", compiled, msg)
		}
		s := e.Snapshot()
		if s.CacheMisses() != 2*workers*rounds || s.CacheHits() != 2*workers*rounds {
			t.Errorf("compiled=%v: misses %d hits %d, want %d each", compiled, s.CacheMisses(), s.CacheHits(), 2*workers*rounds)
		}
	}
}
