package solver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

	capRes, cp := EnumerateCapture(ctx, dfmProblem(capDepth))
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
	_, cp := EnumerateCapture(ctx, dfmProblem(3))
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
	capRes, cp := EnumerateCapture(ctx, p)
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

// TestCheckpointCodecRejectsOldVersion: a blob of an earlier layout
// (version 4 still carried four search flags and the visited-node list)
// fails decode as corrupt, so smoothd counts a store error and starts
// the session cold.
func TestCheckpointCodecRejectsOldVersion(t *testing.T) {
	e := trace.NewEncoder()
	e.Uvarint(checkpointVersion - 1)
	if _, err := DecodeCheckpoint(e.Bytes(), dfmProblem(2)); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("version %d blob: err = %v, want one wrapping trace.ErrCorrupt", checkpointVersion-1, err)
	}
}

// TestCheckpointCodecCorrupt flips bytes across the blob: decode must
// fail closed with an error wrapping trace.ErrCorrupt or — where the
// flip is semantically inert — produce a checkpoint whose resume still
// matches the cold solve. Never a panic.
func TestCheckpointCodecCorrupt(t *testing.T) {
	ctx := context.Background()
	_, cp := EnumerateCapture(ctx, dfmProblem(2))
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
		// The flip decoded: structure survived, so the checkpoint must
		// still be usable. A resume must not panic.
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
	_, cp := EnumerateCapture(ctx, dfmProblem(2))
	if blob, err := cp.Encode(); err == nil {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	budget := dfmProblem(2)
	budget.MaxNodes = 5
	if _, cp := EnumerateCapture(ctx, budget); cp.PendingSize() > 0 {
		if blob, err := cp.Encode(); err == nil {
			f.Add(blob)
		}
	}
	f.Add([]byte("SPT1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeCheckpoint(data, dfmProblem(2))
		if err != nil {
			// Fail-closed: corrupt-sentinel errors, never a panic (a
			// panic fails the fuzz run on its own).
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
// serialize/deserialize boundary: capture (alone or two at once),
// round-trip the blob, resume (alone or two at once), compare against
// cold.
func TestCheckpointCodecResumeParity(t *testing.T) {
	ctx := context.Background()
	const capDepth, fullDepth = 2, 5
	cold := Enumerate(ctx, dfmProblem(fullDepth))
	for _, tc := range []struct {
		name           string
		capPar, resPar bool
	}{
		{"seq-seq", false, false},
		{"seq-par", false, true},
		{"par-seq", true, false},
		{"par-par", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			half := dfmProblem(capDepth)
			var cps [2]*Checkpoint
			each(tc.capPar, 2, func(i int) { _, cps[i] = EnumerateCapture(ctx, half) })
			var decs [2]*Checkpoint
			for i, cp := range cps {
				blob, err := cp.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if decs[i], err = DecodeCheckpoint(blob, half); err != nil {
					t.Fatal(err)
				}
			}
			var res [2]Result
			var errs [2]error
			each(tc.resPar, 2, func(i int) {
				res[i], errs[i] = decs[i].Resume(ctx, ResumeOpts{MaxDepth: fullDepth, Final: true})
			})
			for i := range res {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				expectResultsEqual(t, fmt.Sprintf("%s leg %d", tc.name, i), res[i], cold)
			}
		})
	}
}

func TestCheckpointCodecEqualStats(t *testing.T) {
	// The decoded checkpoint's full (non-Deterministic) counter set for
	// the deterministic fields must equal the live one; spot-check the
	// eval stats directly since fingerprints hang off them.
	_, cp := EnumerateCapture(context.Background(), dfmProblem(3))
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
