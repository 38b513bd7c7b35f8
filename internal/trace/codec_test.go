package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"smoothproc/internal/value"
)

// buildTraces constructs a family of traces sharing spine prefixes, the
// shape the solver persists: one deep trunk plus branches off each
// prefix depth.
func buildTraces() []Trace {
	trunk := Empty
	out := []Trace{Empty}
	for i := 0; i < 8; i++ {
		trunk = trunk.Append(Event{Ch: "c", Val: value.Int(int64(i))})
		out = append(out, trunk)
		out = append(out, trunk.Append(Event{Ch: "b", Val: value.Pair(value.Sym("tag"), value.Bool(i%2 == 0))}))
	}
	return out
}

func TestCodecRoundTrip(t *testing.T) {
	ts := buildTraces()
	blob := EncodeTraces(ts)
	got, err := DecodeTraces(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(ts) {
		t.Fatalf("decoded %d traces, want %d", len(got), len(ts))
	}
	for i := range ts {
		if got[i].Key() != ts[i].Key() {
			t.Fatalf("trace %d key %#x != %#x", i, got[i].Key(), ts[i].Key())
		}
		if !got[i].Equal(ts[i]) {
			t.Fatalf("trace %d decoded to %v, want %v", i, got[i], ts[i])
		}
	}
}

// TestCodecSharing proves shared-node dedup survives serialization: the
// decoded trunk prefixes are spine-identical (same *node), exactly as
// the in-memory builder would have produced, and encoding N traces off
// one trunk costs one pool, not N copies.
func TestCodecSharing(t *testing.T) {
	trunk := Empty
	for i := 0; i < 32; i++ {
		trunk = trunk.Append(Event{Ch: "c", Val: value.Int(int64(i))})
	}
	// All 32 prefixes of one trunk.
	prefixes := make([]Trace, 0, 32)
	for n := 1; n <= 32; n++ {
		prefixes = append(prefixes, trunk.Take(n))
	}
	blob := EncodeTraces(prefixes)
	got, err := DecodeTraces(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := 1; i < len(got); i++ {
		// A decoded trace's parent spine must be the previous decoded
		// prefix's node, not a private copy.
		if got[i].end.parent != got[i-1].end {
			t.Fatalf("prefix %d does not share its parent spine with prefix %d", i, i-1)
		}
	}
	// The pool encodes each node once: doubling the trace count by
	// re-listing the same prefixes must not double the blob.
	double := EncodeTraces(append(append([]Trace{}, prefixes...), prefixes...))
	if len(double) >= 2*len(blob)-16 {
		t.Fatalf("re-encoding shared traces doubled the blob: %d vs %d", len(double), len(blob))
	}
}

func TestCodecPrimitives(t *testing.T) {
	e := NewEncoder()
	e.Uvarint(0)
	e.Uvarint(1 << 40)
	e.Varint(-77)
	e.Bool(true)
	e.Bool(false)
	e.String("hello")
	e.String("hello") // interned: same ref
	e.Value(value.Pair(value.Int(-3), value.Sym("x")))
	blob := e.Bytes()

	d, err := NewDecoder(blob)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if u, _ := d.Uvarint(); u != 0 {
		t.Fatalf("uvarint 0: got %d", u)
	}
	if u, _ := d.Uvarint(); u != 1<<40 {
		t.Fatalf("uvarint 2^40: got %d", u)
	}
	if v, _ := d.Varint(); v != -77 {
		t.Fatalf("varint -77: got %d", v)
	}
	if b, _ := d.Bool(); !b {
		t.Fatal("bool true: got false")
	}
	if b, _ := d.Bool(); b {
		t.Fatal("bool false: got true")
	}
	for i := 0; i < 2; i++ {
		if s, err := d.String(); err != nil || s != "hello" {
			t.Fatalf("string %d: %q %v", i, s, err)
		}
	}
	v, err := d.Value()
	if err != nil {
		t.Fatalf("value: %v", err)
	}
	if !v.Equal(value.Pair(value.Int(-3), value.Sym("x"))) {
		t.Fatalf("value round-trip: got %v", v)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// TestCodecCorrupt flips every byte of a valid blob and asserts decode
// either succeeds (the flip landed somewhere semantically inert, e.g.
// turned one symbol into another) or fails closed with a *CodecError
// wrapping ErrCorrupt — never a panic, and never a trace whose Key
// disagrees with its recomputed spine hash.
func TestCodecCorrupt(t *testing.T) {
	ts := buildTraces()
	blob := EncodeTraces(ts)
	for i := range blob {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := bytes.Clone(blob)
			mut[i] ^= flip
			got, err := DecodeTraces(mut)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("byte %d flip %#x: error %v does not wrap ErrCorrupt", i, flip, err)
				}
				var ce *CodecError
				if !errors.As(err, &ce) {
					t.Fatalf("byte %d flip %#x: error %v is not a *CodecError", i, flip, err)
				}
				continue
			}
			// Decode succeeded: every returned trace must still be
			// internally consistent (Key matches a fresh rebuild).
			for j, tr := range got {
				rebuilt := Empty
				for _, ev := range tr.Events() {
					rebuilt = rebuilt.Append(ev)
				}
				if rebuilt.Key() != tr.Key() {
					t.Fatalf("byte %d flip %#x: decoded trace %d has inconsistent key", i, flip, j)
				}
			}
		}
	}
}

func TestCodecTruncated(t *testing.T) {
	blob := EncodeTraces(buildTraces())
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeTraces(blob[:n]); err == nil {
			t.Fatalf("decoding %d/%d bytes succeeded", n, len(blob))
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: %v does not wrap ErrCorrupt", n, err)
		}
	}
}

func TestCodecEmpty(t *testing.T) {
	got, err := DecodeTraces(EncodeTraces(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d traces", len(got))
	}
	// A bare ⊥ round-trips through reference 0 with no pool entries.
	got, err = DecodeTraces(EncodeTraces([]Trace{Empty}))
	if err != nil {
		t.Fatalf("decode ⊥: %v", err)
	}
	if len(got) != 1 || got[0].Len() != 0 || got[0].Key() != Empty.Key() {
		t.Fatalf("⊥ round-trip: %v", got)
	}
}

// FuzzCodecRoundTrip drives the codec two ways: the fuzz input is first
// interpreted as an event script (round-trip must be exact on Key and
// structure), then fed raw to the decoder (must error or produce
// consistent traces, never panic).
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 17})
	f.Add(EncodeTraces(buildTraces()))
	f.Add([]byte("SPT1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Leg 1: data as an event script over a small alphabet.
		chans := []string{"a", "b", "c"}
		cur := Empty
		var ts []Trace
		for _, b := range data {
			switch b % 4 {
			case 0:
				cur = cur.Append(Event{Ch: chans[int(b/4)%len(chans)], Val: value.Int(int64(b))})
			case 1:
				cur = cur.Append(Event{Ch: chans[int(b/4)%len(chans)], Val: value.Pair(value.Sym(fmt.Sprintf("s%d", b%8)), value.Bool(b%2 == 0))})
			case 2:
				if cur.Len() > 0 {
					cur = cur.Take(cur.Len() / 2)
				}
			case 3:
				ts = append(ts, cur)
			}
		}
		ts = append(ts, cur)
		got, err := DecodeTraces(EncodeTraces(ts))
		if err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		if len(got) != len(ts) {
			t.Fatalf("round trip: %d traces, want %d", len(got), len(ts))
		}
		for i := range ts {
			if got[i].Key() != ts[i].Key() || !got[i].Equal(ts[i]) {
				t.Fatalf("round trip mismatch at %d", i)
			}
		}

		// Leg 2: data as a raw blob — decode must fail closed or return
		// internally consistent traces; panics fail the fuzz run.
		raw, err := DecodeTraces(data)
		if err == nil {
			for _, tr := range raw {
				rebuilt := Empty
				for _, ev := range tr.Events() {
					rebuilt = rebuilt.Append(ev)
				}
				if rebuilt.Key() != tr.Key() {
					t.Fatal("raw decode produced inconsistent trace")
				}
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("raw decode error %v does not wrap ErrCorrupt", err)
		}
	})
}

// parentBlobPath holds a blob written by the encoder before Value's
// representation changed; see TestDecodesParentBlob.
const parentBlobPath = "testdata/parent.spt"

// parentBlobValues are value.TestHash64Golden's values: every kind,
// nested pairs and symbols that go through the string table.
func parentBlobValues() []value.Value {
	return []value.Value{
		value.Int(0), value.Int(-7), value.Int(1 << 40), value.T, value.F,
		value.Sym("chaos"), value.Sym("x_1"),
		value.Pair(value.Int(0), value.Int(10)),
		value.Pair(value.Sym("a"), value.Pair(value.T, value.Int(-3))),
	}
}

// parentBlobTrace appends parentBlobValues in turn on channels c0, c1
// and c2.
func parentBlobTrace() Trace {
	t := Empty
	for i, v := range parentBlobValues() {
		t = t.Append(E(fmt.Sprintf("c%d", i%3), v))
	}
	return t
}

// encodeParentBlob writes every prefix of parentBlobTrace, then each
// value on its own.
func encodeParentBlob() []byte {
	e := NewEncoder()
	for _, p := range parentBlobTrace().Prefixes() {
		e.Trace(p)
	}
	for _, v := range parentBlobValues() {
		e.Value(v)
	}
	return e.Bytes()
}

// TestDecodesParentBlob pins the codec and the key chain across builds:
// a blob the earlier encoder wrote must decode to the same events and
// keys, and encoding the same data now must give the same bytes. Every
// stored checkpoint, result and session blob depends on both. Set
// SMOOTHPROC_UPDATE_GOLDEN=1 to rewrite the blob, which is only right
// for a deliberate format change that also retires every stored blob.
func TestDecodesParentBlob(t *testing.T) {
	if os.Getenv("SMOOTHPROC_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(parentBlobPath, encodeParentBlob(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(parentBlobPath)
	if err != nil {
		t.Fatalf("missing golden %s: %v", parentBlobPath, err)
	}
	want := parentBlobTrace()
	if got := uint64(want.Key()); got != 0x324c06d9d4808c9b {
		t.Errorf("full trace key = %#016x, want 0x324c06d9d4808c9b", got)
	}
	d, err := NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	for n, p := range want.Prefixes() {
		got, err := d.Trace()
		if err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
		if got.Key() != p.Key() || !got.Equal(p) || got.String() != p.String() {
			t.Errorf("prefix %d decoded to %s (key %#x), want %s (key %#x)", n, got, uint64(got.Key()), p, uint64(p.Key()))
		}
	}
	for i, v := range parentBlobValues() {
		got, err := d.Value()
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if !got.Equal(v) || got.Hash64() != v.Hash64() {
			t.Errorf("value %d decoded to %s, want %s", i, got, v)
		}
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeParentBlob(), blob) {
		t.Error("re-encoding the blob's data gave different bytes")
	}
}
