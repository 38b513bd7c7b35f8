package session

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/trace"
)

// fetchFrom builds a fetcher over an in-memory ref→blob map — the shape
// the service's content-addressed store provides.
func fetchFrom(blobs map[string][]byte) func(string) ([]byte, error) {
	return func(ref string) ([]byte, error) {
		b, ok := blobs[ref]
		if !ok {
			return nil, fmt.Errorf("no blob %s", ref)
		}
		return b, nil
	}
}

func encodeToMap(t *testing.T, s *Session, blobs map[string][]byte) []byte {
	t.Helper()
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if b.CheckpointRef != "" {
		sum := sha256.Sum256(b.Checkpoint)
		if hex.EncodeToString(sum[:]) != b.CheckpointRef {
			t.Fatalf("checkpoint ref %s does not hash its blob", b.CheckpointRef)
		}
		blobs[b.CheckpointRef] = b.Checkpoint
	}
	return b.Meta
}

// TestSessionCodecRoundTrip: a session survives encode/decode with its
// leg counters, depth, and — the real contract — a deepening solve on
// the decoded session byte-identical to one on the live session.
func TestSessionCodecRoundTrip(t *testing.T) {
	ctx := context.Background()
	live := dfmSession(t)
	if _, _, err := live.Solve(ctx, Options{Depth: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := live.Solve(ctx, Options{Depth: 2}); err != nil { // one replay for the counters
		t.Fatal(err)
	}

	blobs := map[string][]byte{}
	meta := encodeToMap(t, live, blobs)

	dec, err := Decode(meta, coldProblem(t, 2), dfmSession(t).System(), fetchFrom(blobs))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Key() != live.Key() || dec.Depth() != live.Depth() || dec.Nodes() != live.Nodes() {
		t.Fatalf("decoded identity (%s,%d,%d) != live (%s,%d,%d)",
			dec.Key(), dec.Depth(), dec.Nodes(), live.Key(), live.Depth(), live.Nodes())
	}
	ls, lr, lp := live.Counts()
	ds, dr, dp := dec.Counts()
	if ls != ds || lr != dr || lp != dp {
		t.Fatalf("decoded counts (%d,%d,%d) != live (%d,%d,%d)", ds, dr, dp, ls, lr, lp)
	}

	wantRes, wantOut, err := live.Solve(ctx, Options{Depth: 4})
	if err != nil || wantOut != Resumed {
		t.Fatalf("live deepen: %v %v", wantOut, err)
	}
	gotRes, gotOut, err := dec.Solve(ctx, Options{Depth: 4})
	if err != nil || gotOut != Resumed {
		t.Fatalf("decoded deepen: %v %v", gotOut, err)
	}
	if !reflect.DeepEqual(keys(gotRes.Solutions), keys(wantRes.Solutions)) ||
		gotRes.Nodes != wantRes.Nodes {
		t.Fatalf("decoded session deepened to %v (%d nodes), live %v (%d nodes)",
			keys(gotRes.Solutions), gotRes.Nodes, keys(wantRes.Solutions), wantRes.Nodes)
	}
	if g, w := gotRes.Stats.Deterministic(), wantRes.Stats.Deterministic(); !reflect.DeepEqual(g, w) {
		t.Fatalf("deterministic stats diverged:\n got %+v\nwant %+v", g, w)
	}
}

// TestSessionCodecUnsolved: a never-solved session round-trips with no
// checkpoint blob and comes back cold-solvable.
func TestSessionCodecUnsolved(t *testing.T) {
	s := dfmSession(t)
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if b.Checkpoint != nil || b.CheckpointRef != "" {
		t.Fatalf("unsolved session produced a checkpoint blob (%d bytes, ref %q)", len(b.Checkpoint), b.CheckpointRef)
	}
	dec, err := Decode(b.Meta, coldProblem(t, 4), s.System(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dec.Result(); ok {
		t.Fatal("decoded unsolved session reports a result")
	}
	if _, out, err := dec.Solve(context.Background(), Options{Depth: 2}); err != nil || out != Cold {
		t.Fatalf("decoded unsolved session: outcome %v err %v", out, err)
	}
}

// TestSessionCodecCorrupt: a checkpoint blob that does not hash to its
// reference is rejected before decoding; mangled meta fails closed.
func TestSessionCodecCorrupt(t *testing.T) {
	ctx := context.Background()
	live := dfmSession(t)
	if _, _, err := live.Solve(ctx, Options{Depth: 2}); err != nil {
		t.Fatal(err)
	}
	b, err := live.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Wrong payload under the right ref.
	bad := bytes.Clone(b.Checkpoint)
	bad[len(bad)/2] ^= 0xff
	_, err = Decode(b.Meta, coldProblem(t, 2), live.System(), fetchFrom(map[string][]byte{b.CheckpointRef: bad}))
	if err == nil {
		t.Fatal("decode accepted a checkpoint that does not hash to its reference")
	}
	if !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("hash-mismatch error %v does not wrap trace.ErrCorrupt", err)
	}

	// Meta corruption never panics; every truncation fails closed.
	for n := 0; n < len(b.Meta); n++ {
		if _, err := Decode(b.Meta[:n], coldProblem(t, 2), live.System(), fetchFrom(nil)); err == nil {
			t.Fatalf("decoding %d/%d meta bytes succeeded", n, len(b.Meta))
		}
	}

	// Missing checkpoint blob is a load error, not a zero session.
	if _, err := Decode(b.Meta, coldProblem(t, 2), live.System(), fetchFrom(map[string][]byte{})); err == nil {
		t.Fatal("decode with a missing checkpoint blob succeeded")
	}
}

// TestSessionCodecDeterministic: same session, same blobs — what lets
// the service content-address checkpoints and skip redundant writes.
func TestSessionCodecDeterministic(t *testing.T) {
	ctx := context.Background()
	s := dfmSession(t)
	if _, _, err := s.Solve(ctx, Options{Depth: 3}); err != nil {
		t.Fatal(err)
	}
	b1, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Meta, b2.Meta) || !bytes.Equal(b1.Checkpoint, b2.Checkpoint) {
		t.Fatal("re-encoding the session changed a blob")
	}
	if k, err := MetaKey(b1.Meta); err != nil || k != "dfm" {
		t.Fatalf("MetaKey = %q, %v", k, err)
	}
	// Delta-solves still work on a decoded session (the System flows
	// through untouched).
	dec, err := Decode(b1.Meta, coldProblem(t, 3), s.System(), fetchFrom(map[string][]byte{b1.CheckpointRef: b1.Checkpoint}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Delta(2, "b")
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Delta(2, "b")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(got.Solutions), keys(want.Solutions)) {
		t.Fatalf("decoded delta %v, live %v", keys(got.Solutions), keys(want.Solutions))
	}
}

// FuzzSessionDecode throws a meta blob and a fetched checkpoint at
// Decode: any outcome but a panic is acceptable. A session that decodes
// must answer its accessors and deepen one level under a small node
// budget — resuming from whatever frontier and carried f the checkpoint
// holds — without panicking. Seeds: a depth-bound session, a
// budget-truncated one and an unsolved one.
func FuzzSessionDecode(f *testing.F) {
	ctx := context.Background()
	prog, err := eqlang.CompileSource(dfmSrc)
	if err != nil {
		f.Fatal(err)
	}
	newSession := func() *Session {
		p := prog.Problem()
		p.CollectVisited = false
		return New("dfm", p, prog.System)
	}
	for _, o := range []*Options{{Depth: 2}, {Depth: 3, MaxNodes: 6}, nil} {
		s := newSession()
		if o != nil {
			if _, _, err := s.Solve(ctx, *o); err != nil {
				f.Fatal(err)
			}
		}
		b, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b.Meta, b.Checkpoint)
	}
	f.Fuzz(func(t *testing.T, meta, checkpoint []byte) {
		p := prog.Problem()
		p.CollectVisited = false
		fetch := func(string) ([]byte, error) { return checkpoint, nil }
		s, err := Decode(meta, p, prog.System, fetch)
		if err != nil {
			return // fail-closed
		}
		_, _, _ = s.Depth(), s.Nodes(), s.FrontierSize()
		_, _ = s.Result()
		if d, n := s.Depth(), s.Nodes(); d < 0 || d > 8 || n < 0 || n > 1<<20 {
			return // bounds no solve of this fixture should run to
		}
		_, _, _ = s.Solve(ctx, Options{Depth: s.Depth() + 1, MaxNodes: s.Nodes() + 64})
	})
}
