package solver

import (
	"context"
	"testing"

	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/value"
)

// fig4Problem is the eliminated Brock–Ackermann description of §2.4,
// even(c) ⟵ ⟨0 2⟩, odd(c) ⟵ fBA(c): its equations hold for c = 0 1 2
// and c = 0 2 1, and only 0 2 1 is smooth.
func fig4Problem(depth int) Problem {
	d := desc.Combine("fig4",
		desc.MustNew("eq1", fn.OnChan(fn.Even, "c"), fn.ConstTraceFn(seq.OfInts(0, 2))),
		desc.MustNew("eq2", fn.OnChan(fn.Odd, "c"), fn.OnChan(fn.FBA, "c")),
	)
	return NewProblem(d, map[string][]value.Value{"c": value.Ints(0, 1, 2)}, depth)
}

func TestSampleFindsOnlySolutions(t *testing.T) {
	for _, tc := range []struct {
		name  string
		p     Problem
		seeds []int64
		walks int
	}{
		{"dfm", dfmProblem(4), []int64{1}, 64},
		{"fig4", fig4Problem(3), []int64{1, 2, 3, 4, 5}, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			full := Enumerate(context.Background(), p)
			for _, seed := range tc.seeds {
				s := Sample(context.Background(), p, SampleOpts{Seed: seed, Walks: tc.walks})
				if len(s.Solutions) == 0 {
					t.Fatalf("seed %d: sampler found nothing", seed)
				}
				for _, tr := range s.Solutions {
					if err := p.D.IsSmoothFinite(tr); err != nil {
						t.Errorf("seed %d: sampled non-solution %s: %v", seed, tr, err)
					}
					if tr.Channel("c").Equal(seq.OfInts(0, 1, 2)) {
						t.Errorf("seed %d: sampled the anomaly c = 0 1 2: %s", seed, tr)
					}
				}
				// Soundness against the exhaustive set.
				for k, tr := range s.Solutions {
					if !full.Contains(tr) {
						t.Errorf("seed %d: sampled solution %s not in the exhaustive set", seed, k)
					}
				}
			}
		})
	}
}

func TestSampleIsDeterministicPerSeed(t *testing.T) {
	p := dfmProblem(4)
	a := Sample(context.Background(), p, SampleOpts{Seed: 9})
	b := Sample(context.Background(), p, SampleOpts{Seed: 9})
	if len(a.Solutions) != len(b.Solutions) || a.Steps != b.Steps {
		t.Error("same seed, different samples")
	}
}

func TestSampleWalksDeepOnInfinitePaths(t *testing.T) {
	// Ticks: the single infinite path; walks must follow it to the bound.
	d := desc.MustNew("ticks", fn.ChanFn("b"), fn.OnChan(fn.PrependFn(value.T), "b"))
	p := NewProblem(d, map[string][]value.Value{"b": {value.T, value.F}}, 64)
	s := Sample(context.Background(), p, SampleOpts{Seed: 3, Walks: 2})
	if s.Deepest.Len() != 64 {
		t.Errorf("deepest = %d, want 64", s.Deepest.Len())
	}
	if len(s.Solutions) != 0 {
		t.Errorf("ticks has no finite solutions, sampler found %d", len(s.Solutions))
	}
}

func TestSampleCoversMostOfSmallSpace(t *testing.T) {
	// With enough walks on a small problem the sampler should see a
	// large fraction of the solution set.
	p := dfmProblem(4)
	full := Enumerate(context.Background(), p)
	s := Sample(context.Background(), p, SampleOpts{Seed: 5, Walks: 512})
	if len(s.Solutions)*2 < full.Solutions.Len() {
		t.Errorf("sampler hit %d of %d solutions", len(s.Solutions), full.Solutions.Len())
	}
}

func TestSampleRespectsDepthOverride(t *testing.T) {
	d := desc.MustNew("const", fn.ChanFn("b"), fn.ConstTraceFn(seq.OfInts(7, 7, 7, 7)))
	p := NewProblem(d, map[string][]value.Value{"b": value.Ints(7)}, 16)
	s := Sample(context.Background(), p, SampleOpts{Seed: 1, Walks: 4, MaxDepth: 2})
	if s.Deepest.Len() > 2 {
		t.Errorf("walk exceeded depth override: %d", s.Deepest.Len())
	}
}
