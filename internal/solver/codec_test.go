package solver

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"smoothproc/internal/trace"
)

// TestCheckpointCodecRoundTrip is the persistence contract: a decoded
// checkpoint is indistinguishable from the live one — stored result,
// frontier/pending shape, the f each retained son carries — and a Final
// resume from it is byte-identical to a cold solve at the target depth,
// evaluation hit/apply counters included.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	ctx := context.Background()
	const capDepth, fullDepth = 2, 5

	capRes, cp := EnumerateCapture(ctx, dfmProblem(capDepth), 1)
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}

	dec, err := DecodeCheckpoint(blob, dfmProblem(capDepth))
	if err != nil {
		t.Fatal(err)
	}
	expectResultsEqual(t, "decoded stored result", dec.Result(), capRes)
	if dec.FrontierSize() != cp.FrontierSize() || dec.PendingSize() != cp.PendingSize() ||
		dec.Resumes() != cp.Resumes() || dec.Resumable() != cp.Resumable() ||
		dec.MaxDepth() != cp.MaxDepth() {
		t.Fatalf("decoded shape (%d,%d,%d,%v,%d) != live (%d,%d,%d,%v,%d)",
			dec.FrontierSize(), dec.PendingSize(), dec.Resumes(), dec.Resumable(), dec.MaxDepth(),
			cp.FrontierSize(), cp.PendingSize(), cp.Resumes(), cp.Resumable(), cp.MaxDepth())
	}
	carried := 0
	for i, fe := range cp.frontier {
		for j, son := range fe.sons {
			got := dec.frontier[i].sons[j]
			if !got.t.Equal(son.t) || (got.f == nil) != (son.f == nil) || !got.f.Equal(son.f) {
				t.Fatalf("frontier %d son %d: decoded (%s, %v), live (%s, %v)", i, j, got.t, got.f, son.t, son.f)
			}
			if son.f != nil {
				carried++
			}
		}
	}
	if carried == 0 {
		t.Fatal("no frontier son carries f; the test needs a problem with evaluated edges")
	}

	cold := Enumerate(ctx, dfmProblem(fullDepth))
	res, err := dec.Resume(ctx, ResumeOpts{MaxDepth: fullDepth, Final: true})
	if err != nil {
		t.Fatal(err)
	}
	expectResultsEqual(t, "resume from decoded checkpoint vs cold", res, cold)
}

// TestCheckpointCodecDeterministic: encoding the same checkpoint twice,
// or encoding its own decode, yields byte-identical blobs — what makes
// checkpoint blobs content-addressable.
func TestCheckpointCodecDeterministic(t *testing.T) {
	ctx := context.Background()
	_, cp := EnumerateCapture(ctx, dfmProblem(3), 3)
	b1, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("re-encoding the live checkpoint changed the blob")
	}
	dec, err := DecodeCheckpoint(b1, dfmProblem(3))
	if err != nil {
		t.Fatal(err)
	}
	b3, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatal("encode∘decode∘encode changed the blob")
	}
}

// TestCheckpointCodecTruncated covers the pending-queue path: a budget-
// truncated capture decodes and resumes to the cold full solve.
func TestCheckpointCodecTruncated(t *testing.T) {
	ctx := context.Background()
	p := dfmProblem(4)
	p.MaxNodes = 9
	capRes, cp := EnumerateCapture(ctx, p, 1)
	if !capRes.Truncated || cp.PendingSize() == 0 {
		t.Fatalf("capture not truncated as intended (truncated=%v pending=%d)", capRes.Truncated, cp.PendingSize())
	}
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p2 := dfmProblem(4)
	p2.MaxNodes = 9
	dec, err := DecodeCheckpoint(blob, p2)
	if err != nil {
		t.Fatal(err)
	}
	cold := Enumerate(ctx, dfmProblem(4))
	res, err := dec.Resume(ctx, ResumeOpts{MaxDepth: 4, Final: true})
	if err != nil {
		t.Fatal(err)
	}
	expectResultsEqual(t, "truncated decode + final resume vs cold", res, cold)
}

// TestCheckpointCodecFlagMismatch: decoding under a differently
// configured problem must fail loudly, not produce drifting results.
func TestCheckpointCodecFlagMismatch(t *testing.T) {
	_, cp := EnumerateCapture(context.Background(), dfmProblem(2), 1)
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p := dfmProblem(2)
	p.Compiled = !p.Compiled
	if _, err := DecodeCheckpoint(blob, p); err == nil {
		t.Fatal("decode under mismatched Compiled succeeded")
	}
	p = dfmProblem(2)
	p.Prune = false
	if _, err := DecodeCheckpoint(blob, p); err == nil {
		t.Fatal("decode under mismatched Prune succeeded")
	}
}

// TestCheckpointCodecCorrupt flips bytes across the blob: decode must
// fail closed with an error wrapping trace.ErrCorrupt or — where the
// flip is semantically inert — produce a checkpoint whose resume still
// matches the cold solve. Never a panic.
func TestCheckpointCodecCorrupt(t *testing.T) {
	ctx := context.Background()
	_, cp := EnumerateCapture(ctx, dfmProblem(2), 1)
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(blob); i++ {
		mut := bytes.Clone(blob)
		mut[i] ^= 0xff
		dec, err := DecodeCheckpoint(mut, dfmProblem(2))
		if err != nil {
			continue // fail-closed is the expected outcome
		}
		// The flip decoded: the checkpoint must still be usable (flag
		// bytes and similar can only flip to other valid states that the
		// flag-mismatch check rejects, so reaching here means structure
		// survived). A resume must not panic.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte %d: resume of corrupt-decoded checkpoint panicked: %v", i, r)
				}
			}()
			_, _ = dec.Resume(ctx, ResumeOpts{MaxDepth: 3, Final: true})
		}()
	}
	// Truncations fail closed too.
	for _, n := range []int{0, 1, 4, len(blob) / 2, len(blob) - 1} {
		if _, err := DecodeCheckpoint(blob[:n], dfmProblem(2)); err == nil {
			t.Fatalf("decoding %d/%d bytes succeeded", n, len(blob))
		} else if !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("truncation at %d: %v does not wrap trace.ErrCorrupt", n, err)
		}
	}
}

// FuzzCheckpointDecode throws raw bytes at the decoder: any outcome but
// a panic is acceptable. A successful decode must hold a result whose
// invariants can be checked, and must resume one level deeper under a
// small node budget — reading whatever f the blob's frontier sons and
// pending nodes carry — without panicking. The seeds are a depth-bound
// capture (frontier sons carrying f) and a budget-truncated one
// (pending nodes carrying f).
func FuzzCheckpointDecode(f *testing.F) {
	ctx := context.Background()
	_, cp := EnumerateCapture(ctx, dfmProblem(2), 1)
	if blob, err := cp.Encode(); err == nil {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	budget := dfmProblem(2)
	budget.MaxNodes = 5
	if _, cp := EnumerateCapture(ctx, budget, 1); cp.PendingSize() > 0 {
		if blob, err := cp.Encode(); err == nil {
			f.Add(blob)
		}
	}
	f.Add([]byte("SPT1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeCheckpoint(data, dfmProblem(2))
		if err != nil {
			// Fail-closed: corrupt-sentinel or config-mismatch errors,
			// never a panic (a panic fails the fuzz run on its own).
			return
		}
		res := dec.Result()
		_ = res.Stats.CheckInvariants(res.Truncated)
		if dec.MaxDepth() < 0 || dec.MaxDepth() > 8 || dec.Nodes() < 0 || dec.Nodes() > 1<<20 || !dec.Resumable() {
			return // bounds no resume of this fixture should run to
		}
		_, _ = dec.Resume(ctx, ResumeOpts{MaxDepth: dec.MaxDepth() + 1, MaxNodes: dec.Nodes() + 64})
	})
}

// TestCheckpointCodecResumeParity mirrors the live resume matrix over a
// serialize/deserialize boundary: capture (seq or par), round-trip the
// blob, resume (seq or par), compare against cold.
func TestCheckpointCodecResumeParity(t *testing.T) {
	ctx := context.Background()
	const capDepth, fullDepth = 2, 5
	cold := Enumerate(ctx, dfmProblem(fullDepth))
	for _, tc := range []struct {
		name                      string
		capWorkers, resumeWorkers int
	}{
		{"seq-seq", 1, 1},
		{"seq-par", 1, 3},
		{"par-seq", 3, 1},
		{"par-par", 2, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, cp := EnumerateCapture(ctx, dfmProblem(capDepth), tc.capWorkers)
			blob, err := cp.Encode()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeCheckpoint(blob, dfmProblem(capDepth))
			if err != nil {
				t.Fatal(err)
			}
			res, err := dec.Resume(ctx, ResumeOpts{MaxDepth: fullDepth, Workers: tc.resumeWorkers, Final: true})
			if err != nil {
				t.Fatal(err)
			}
			expectResultsEqual(t, tc.name, res, cold)
		})
	}
}

func TestCheckpointCodecEqualStats(t *testing.T) {
	// The decoded checkpoint's full (non-Deterministic) counter set for
	// the deterministic fields must equal the live one; spot-check the
	// eval stats directly since fingerprints hang off them.
	_, cp := EnumerateCapture(context.Background(), dfmProblem(3), 1)
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCheckpoint(blob, dfmProblem(3))
	if err != nil {
		t.Fatal(err)
	}
	live := cp.Result().Stats.Eval
	got := dec.Result().Stats.Eval
	live.FNanos, live.GNanos, got.FNanos, got.GNanos = 0, 0, 0, 0
	if !reflect.DeepEqual(got, live) {
		t.Fatalf("decoded eval stats %+v, live %+v", got, live)
	}
}
