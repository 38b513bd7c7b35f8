package session

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
)

// TestSessionCodecRoundTrip: a session survives encode/decode with its
// bounds and resume count, and — the real contract — a deepening solve
// on the decoded session is byte-identical to one on the live session.
// The live session ran a replay and a resume that raised both bounds,
// which the record must carry: it has no copy of them besides the
// checkpoint's. The replay is not in the record, so the decoded session
// counts none.
func TestSessionCodecRoundTrip(t *testing.T) {
	ctx := context.Background()
	live := dfmSession(t)
	for _, o := range []Options{{Depth: 2, MaxNodes: 1_000}, {Depth: 2}, {Depth: 4, MaxNodes: 5_000}} {
		if _, _, err := live.Solve(ctx, o); err != nil {
			t.Fatal(err)
		}
	}

	data, err := live.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(data, live.Key(), coldProblem(t, 2), live.System())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Key() != live.Key() || dec.Depth() != 4 || dec.Nodes() != live.Nodes() || dec.FrontierSize() != live.FrontierSize() {
		t.Fatalf("decoded identity (%s,%d,%d,%d) != live (%s,4,%d,%d)",
			dec.Key(), dec.Depth(), dec.Nodes(), dec.FrontierSize(), live.Key(), live.Nodes(), live.FrontierSize())
	}
	ls, lr, lp := live.Counts()
	ds, dr, dp := dec.Counts()
	if ls != 3 || lr != 1 || lp != 1 || ds != 2 || dr != 1 || dp != 0 {
		t.Fatalf("decoded counts (%d,%d,%d), live (%d,%d,%d), want (2,1,0) and (3,1,1)", ds, dr, dp, ls, lr, lp)
	}

	wantRes, wantOut, err := live.Solve(ctx, Options{Depth: 6})
	if err != nil || wantOut != Resumed {
		t.Fatalf("live deepen: %v %v", wantOut, err)
	}
	gotRes, gotOut, err := dec.Solve(ctx, Options{Depth: 6})
	if err != nil || gotOut != Resumed {
		t.Fatalf("decoded deepen: %v %v", gotOut, err)
	}
	if !reflect.DeepEqual(keys(gotRes.Solutions.Traces()), keys(wantRes.Solutions.Traces())) ||
		gotRes.Nodes != wantRes.Nodes {
		t.Fatalf("decoded session deepened to %v (%d nodes), live %v (%d nodes)",
			keys(gotRes.Solutions.Traces()), gotRes.Nodes, keys(wantRes.Solutions.Traces()), wantRes.Nodes)
	}
	if g, w := gotRes.Stats.Deterministic(), wantRes.Stats.Deterministic(); !reflect.DeepEqual(g, w) {
		t.Fatalf("deterministic stats diverged:\n got %+v\nwant %+v", g, w)
	}
}

// TestSessionCodecUnsolved: a session that never solved has no
// checkpoint, so it has nothing to encode.
func TestSessionCodecUnsolved(t *testing.T) {
	s := dfmSession(t)
	if data, err := s.Encode(); err == nil {
		t.Fatalf("unsolved session encoded to %d bytes", len(data))
	}
}

// lastShapeByte returns the index of the last byte of a record's shape
// records: the checkpoint ends with its check value, a uvarint, and every
// byte of a uvarint but its last has the high bit set.
func lastShapeByte(record []byte) int {
	i := len(record) - 2
	for record[i]&0x80 != 0 {
		i--
	}
	return i
}

// TestSessionCodecCorrupt: every truncation of a record, records of
// versions 2 and 3, a record read under another session's key and a
// record whose tree shape was altered all fail closed. A version 3
// record is this one's layout with a replay count after the key.
func TestSessionCodecCorrupt(t *testing.T) {
	ctx := context.Background()
	live := dfmSession(t)
	if _, _, err := live.Solve(ctx, Options{Depth: 2}); err != nil {
		t.Fatal(err)
	}
	data, err := live.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decode := func(what string, data []byte, key string) {
		t.Helper()
		if _, err := Decode(data, key, coldProblem(t, 2), live.System()); !errors.Is(err, solver.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want one wrapping solver.ErrCorrupt", what, err)
		}
	}

	for n := 0; n < len(data); n++ {
		decode("truncated record", data[:n], live.Key())
	}
	decode("version-2 record", append([]byte{2}, data[1:]...), live.Key())
	cp := 2 + len(live.Key()) // the checkpoint's offset: one-byte version and key length, then the key
	decode("version-3 record", slices.Concat([]byte{3}, data[1:cp], []byte{0}, data[cp:]), live.Key())
	decode("another session's record", data, "fig4")
	flipped := bytes.Clone(data)
	flipped[lastShapeByte(flipped)] ^= 1
	decode("flipped shape byte", flipped, live.Key())
}

// TestSessionCodecDeterministic: same session, same record.
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
	if !bytes.Equal(b1, b2) {
		t.Fatal("re-encoding the session changed its record")
	}
	// Delta-solves still work on a decoded session (the System flows
	// through untouched).
	dec, err := Decode(b1, s.Key(), coldProblem(t, 3), s.System())
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

// FuzzSessionDecode throws a session record at Decode, for the Fig. 2
// network and for Kahn's buffer: any outcome but a panic is acceptable.
// A session that decodes must answer its accessors and deepen one level
// under a small node budget — resuming from whatever frontier the
// checkpoint's replay rebuilt, with the f its sons carry recomputed —
// without panicking. Seeds: a depth-bound session, a budget-truncated
// one, a session that resumed and replayed, and a session of the
// buffer, a Theorem 1 description whose auto-admitted sons carry no f.
func FuzzSessionDecode(f *testing.F) {
	ctx := context.Background()
	var progs []*eqlang.Program
	for _, src := range []string{dfmSrc, bufferSrc} {
		prog, err := eqlang.CompileSource(src)
		if err != nil {
			f.Fatal(err)
		}
		progs = append(progs, prog)
	}
	for i, legs := range [][]Options{{{Depth: 2}}, {{Depth: 3, MaxNodes: 6}}, {{Depth: 1}, {Depth: 2}, {Depth: 2}}, {{Depth: 2}}} {
		prog := progs[i/3]
		s := New("seed", prog.Problem(), prog.System)
		for _, o := range legs {
			if _, _, err := s.Solve(ctx, o); err != nil {
				f.Fatal(err)
			}
		}
		data, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, prog := range progs {
			s, err := Decode(data, "seed", prog.Problem(), prog.System)
			if err != nil {
				continue // fail-closed
			}
			_, _, _ = s.Depth(), s.Nodes(), s.FrontierSize()
			_, _ = s.Result()
			_, _, _ = s.Counts()
			if d, n := s.Depth(), s.Nodes(); d < 0 || d > 8 || n < 0 || n > 1<<20 {
				continue // bounds no solve of these fixtures should run to
			}
			_, _, _ = s.Solve(ctx, Options{Depth: s.Depth() + 1, MaxNodes: s.Nodes() + 64})
		}
	})
}
