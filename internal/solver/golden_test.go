package solver_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
)

// kahnBuffer compiles specs/kahn-buffer.eq, whose problem has depth 4.
func kahnBuffer(t *testing.T) *eqlang.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "specs", "kahn-buffer.eq"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := eqlang.CompileSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCheckpointCodecRejectsOldVersion: a kahn-buffer checkpoint at
// depth 4 written by the version 5 encoder, which stored every retained
// trace and carried f tuple value by value, fails decode as corrupt, so
// smoothd counts a store error and starts that session cold.
func TestCheckpointCodecRejectsOldVersion(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "kahn-buffer-d4-v5.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.DecodeCheckpoint(blob, kahnBuffer(t).Problem()); !errors.Is(err, solver.ErrCorrupt) {
		t.Fatalf("version 5 blob: err = %v, want one wrapping solver.ErrCorrupt", err)
	}
}

// TestCheckpointCodecGolden pins the version 6 layout: a kahn-buffer
// checkpoint at depth 4 decodes, re-encodes to the same bytes, and
// resumes Final to the cold depth-6 solve's fingerprint. A change to the
// format fails here until the golden is rewritten on purpose, with
// SMOOTHPROC_UPDATE_GOLDEN=1.
func TestCheckpointCodecGolden(t *testing.T) {
	ctx := context.Background()
	prog := kahnBuffer(t)
	path := filepath.Join("testdata", "kahn-buffer-d4-v6.ckpt")
	if os.Getenv("SMOOTHPROC_UPDATE_GOLDEN") != "" {
		_, cp := solver.EnumerateCapture(ctx, prog.Problem())
		blob, err := cp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (set SMOOTHPROC_UPDATE_GOLDEN=1 to create)", err)
	}
	cp, err := solver.DecodeCheckpoint(blob, prog.Problem())
	if err != nil {
		t.Fatal(err)
	}
	again, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatalf("the decoded golden re-encodes to %d different bytes, not its own %d", len(again), len(blob))
	}
	deep := prog.Problem()
	deep.MaxDepth = 6
	cold := solver.Enumerate(ctx, deep)
	res, err := cp.Resume(ctx, solver.ResumeOpts{MaxDepth: 6, Final: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Fingerprint(), cold.Fingerprint(); got != want {
		t.Fatalf("golden resumed to depth 6: fingerprint %#x, cold %#x", got, want)
	}
}
