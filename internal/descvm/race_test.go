package descvm

import (
	"sync"
	"testing"

	"smoothproc/internal/fn"
)

// TestEvalConcurrent shares one Prog across goroutines, each evaluating
// through a Session of its own — the parallel search's pattern, one
// session per worker. A Prog is immutable after Compile and all mutable
// state lives in session frames; CI runs this under -race.
func TestEvalConcurrent(t *testing.T) {
	f := buildComposite()
	p, ok := Compile(f)
	if !ok {
		t.Fatal("composite did not compile")
	}
	traces := sampleTraces()
	want := make([]fn.Tuple, len(traces))
	for i, tr := range traces {
		want[i] = f.Apply(tr)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := p.NewSession()
			for rep := 0; rep < 50; rep++ {
				for i, tr := range traces {
					if got := s.Eval(tr); !got.Equal(want[i]) {
						t.Errorf("worker %d: trace %s: %v != %v", w, tr, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
