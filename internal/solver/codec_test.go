package solver

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"smoothproc/internal/value"
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
	live, decoded := cp.retained.ids.all(), dec.retained.ids.all()
	if len(live) != len(decoded) || cp.retained.fs.len() != dec.retained.fs.len() {
		t.Fatalf("decoded %d retained sons carrying %d values, live %d carrying %d",
			len(decoded), dec.retained.fs.len(), len(live), cp.retained.fs.len())
	}
	for i, son := range live {
		got, want := dec.s.tree.Trace(decoded[i]), cp.s.tree.Trace(son)
		if !got.Equal(want) || dec.s.carries(decoded[i]) != cp.s.carries(son) {
			t.Fatalf("retained son %d: decoded %s, live %s", i, got, want)
		}
	}
	carried := cp.retained.fs.len()
	for i, f := range cp.retained.fs.all() {
		if got := dec.retained.fs.all()[i]; (got == nil) != (f == nil) || !got.Equal(f) {
			t.Fatalf("retained value %d: decoded %v, live %v", i, got, f)
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

// TestCheckpointCodecAfterFinal: a Final resume leaves the captured
// state as it was, so a finalized checkpoint encodes its last captured
// leg — result, depth and shape — and decodes as finalized.
func TestCheckpointCodecAfterFinal(t *testing.T) {
	ctx := context.Background()
	capRes, cp := EnumerateCapture(ctx, dfmProblem(2))
	if _, err := cp.Resume(ctx, ResumeOpts{MaxDepth: 4, Final: true}); err != nil {
		t.Fatal(err)
	}
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCheckpoint(blob, dfmProblem(2))
	if err != nil {
		t.Fatal(err)
	}
	expectResultsEqual(t, "finalized checkpoint's stored result", dec.Result(), capRes)
	if dec.MaxDepth() != 2 || dec.Resumable() || dec.Resumes() != 1 || dec.FrontierSize() != cp.FrontierSize() {
		t.Fatalf("decoded (depth %d, resumable %v, resumes %d, frontier %d), want (2, false, 1, %d)",
			dec.MaxDepth(), dec.Resumable(), dec.Resumes(), dec.FrontierSize(), cp.FrontierSize())
	}
}

// TestCheckpointCodecCorrupt flips bytes across the blob: decode must
// fail closed with an error wrapping ErrCorrupt or — where the flip only
// touches the stored counters the tree's shape does not fix, or the
// timings — produce a checkpoint whose resume does not panic. A flip in
// the shape records or the check value must always fail: a son index
// that names another candidate changes a Key the check value folds. A
// blob decoded against a problem whose candidate order differs from the
// capture's fails too. Truncations and trailing bytes fail closed.
func TestCheckpointCodecCorrupt(t *testing.T) {
	ctx := context.Background()
	_, cp := EnumerateCapture(ctx, dfmProblem(2))
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	check := binary.AppendUvarint(nil, cp.checkValue(cp.done))
	shapeStart := len(blob) - len(check) - len(cp.shape)
	for i := 0; i < len(blob); i++ {
		mut := bytes.Clone(blob)
		mut[i] ^= 0xff
		dec, err := DecodeCheckpoint(mut, dfmProblem(2))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("byte %d: %v does not wrap ErrCorrupt", i, err)
			}
			continue // fail-closed is the expected outcome
		}
		if i >= shapeStart {
			t.Fatalf("byte %d of the shape records or check value flipped, yet the blob decoded", i)
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
	// A problem whose candidates are the same events in another order.
	swapped := dfmProblem(2)
	swapped.Alphabet["d"] = []value.Value{value.Int(1), value.Int(0)}
	if _, err := DecodeCheckpoint(blob, swapped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode against a reordered alphabet: err = %v, want one wrapping ErrCorrupt", err)
	}
	// Truncations and trailing bytes fail closed too.
	for _, mut := range [][]byte{nil, blob[:1], blob[:4], blob[:len(blob)/2], blob[:len(blob)-1], append(bytes.Clone(blob), 0)} {
		if _, err := DecodeCheckpoint(mut, dfmProblem(2)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decoding %d of %d bytes: err = %v, want one wrapping ErrCorrupt", len(mut), len(blob), err)
		}
	}
}

// FuzzCheckpointDecode throws raw bytes at the decoder, against the
// Fig. 2 network and against Kahn's buffer: any outcome but a panic is
// acceptable. A successful decode must hold a result whose invariants
// can be checked, and must resume one level deeper under a small node
// budget — reading whatever f the resume recomputes for the frontier
// sons and pending nodes — without panicking. The seeds are a
// depth-bound capture (frontier sons carrying f), half of it, a
// budget-truncated capture (pending nodes carrying f) and a capture of
// the buffer, a Theorem 1 description whose auto-admitted sons carry no
// f.
func FuzzCheckpointDecode(f *testing.F) {
	ctx := context.Background()
	budget := dfmProblem(2)
	budget.MaxNodes = 5
	for i, p := range []Problem{dfmProblem(2), budget, bufferProblem(2)} {
		_, cp := EnumerateCapture(ctx, p)
		blob, err := cp.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		if i == 0 {
			f.Add(blob[:len(blob)/2])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range []Problem{dfmProblem(2), bufferProblem(2)} {
			dec, err := DecodeCheckpoint(data, p)
			if err != nil {
				// Fail-closed: corrupt-sentinel errors, never a panic (a
				// panic fails the fuzz run on its own).
				continue
			}
			res := dec.Result()
			_ = res.Stats.CheckInvariants(res.Truncated)
			if dec.MaxDepth() > 8 || dec.Nodes() > 1<<20 || !dec.Resumable() {
				continue // bounds no resume of these fixtures should run to
			}
			_, _ = dec.Resume(ctx, ResumeOpts{MaxDepth: dec.MaxDepth() + 1, MaxNodes: dec.Nodes() + 64})
		}
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
