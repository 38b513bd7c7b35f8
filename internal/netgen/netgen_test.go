package netgen

import (
	"strings"
	"testing"

	"smoothproc/internal/fn"
	"smoothproc/internal/value"
)

// TestDedupKeepsFirstSeenOrder proves the Hash64-bucketed dedup is
// order-preserving and first-occurrence-keeping, exactly like the old
// pairwise scan.
func TestDedupKeepsFirstSeenOrder(t *testing.T) {
	in := []value.Value{
		value.Int(4), value.Int(2), value.Int(4), value.T,
		value.Pair(value.Int(1), value.Int(2)), value.Int(2),
		value.T, value.F, value.Pair(value.Int(1), value.Int(2)), value.Int(9),
	}
	got := dedup(in)
	want := []value.Value{
		value.Int(4), value.Int(2), value.T,
		value.Pair(value.Int(1), value.Int(2)), value.F, value.Int(9),
	}
	if len(got) != len(want) {
		t.Fatalf("dedup = %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("dedup[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestDedupWideAlphabet exercises dedup on a wide mostly-distinct input
// (the case the old O(n²) scan made quadratic) and checks the result is
// exactly the first occurrence of each value in order.
func TestDedupWideAlphabet(t *testing.T) {
	const n = 5000
	in := make([]value.Value, 0, 2*n)
	for i := 0; i < n; i++ {
		in = append(in, value.Int(int64(i)))
	}
	for i := 0; i < n; i++ { // full duplicate pass
		in = append(in, value.Int(int64(i)))
	}
	got := dedup(in)
	if len(got) != n {
		t.Fatalf("dedup kept %d values, want %d", len(got), n)
	}
	for i, v := range got {
		if x, _ := v.AsInt(); x != int64(i) {
			t.Fatalf("dedup[%d] = %s, want %d (first-seen order)", i, v, i)
		}
	}
}

// TestMapStageRejectsNonMap checks the construction-time validation that
// replaced the mid-run panic: a SeqFn that is not a pointwise map is
// reported with the stage name.
func TestMapStageRejectsNonMap(t *testing.T) {
	_, _, err := mapStage("bad", "in", "out", fn.Even, []value.Value{value.Int(1)})
	if err == nil {
		t.Fatal("mapStage accepted a filter (not a map)")
	}
	if !strings.Contains(err.Error(), "bad") || !strings.Contains(err.Error(), "not a map") {
		t.Errorf("error %q does not name the stage and the violation", err)
	}
}
