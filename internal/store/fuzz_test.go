package store

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzUnframe holds the disk store's integrity frame to its contract.
// Arbitrary bytes never panic the decoder: they yield the payload, and
// then are exactly the frame of that payload, or a *CorruptError. A
// framed payload decodes to itself, and every proper prefix of the
// frame, and every copy of it with one byte changed, is rejected.
//
// The inputs are the kind's index into Kinds, the mask a changed byte
// is XORed with (0 counts as 1), and the bytes, which are decoded as
// they stand and framed as a payload.
func FuzzUnframe(f *testing.F) {
	spec := []byte("alphabet a = {0}\ndepth 2\ndesc a <- [0]\n")
	f.Add(uint8(0), uint8(0xff), []byte{})
	f.Add(uint8(0), uint8(1), spec)
	f.Add(uint8(0), uint8(0x80), frame(KindSpec, spec))
	f.Add(uint8(1), uint8(0x20), frame(KindSpec, spec))               // framed as another kind
	f.Add(uint8(1), uint8(0x01), frame(KindResult, nil)[:40])         // truncated header
	f.Add(uint8(2), uint8(0x04), append(frame(KindSession, spec), 0)) // one byte past the payload
	f.Fuzz(func(t *testing.T, kindSel, mask uint8, data []byte) {
		kinds := Kinds()
		kind := kinds[int(kindSel)%len(kinds)]
		key := KeyOf(data)
		rejected := func(what string, b []byte) {
			t.Helper()
			got, err := unframe(kind, key, b)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("%s: got %q and error %v, want a *CorruptError", what, got, err)
			}
			if ce.Kind != kind || ce.Key != key || got != nil {
				t.Fatalf("%s: got %q and %+v, want no payload and the error naming %s/%s", what, got, ce, kind, key)
			}
		}

		if payload, err := unframe(kind, key, data); err == nil {
			if !bytes.Equal(frame(kind, payload), data) {
				t.Fatalf("accepted %q, which is not the frame of its payload %q", data, payload)
			}
		} else {
			rejected("arbitrary bytes", data)
		}

		framed := frame(kind, data)
		got, err := unframe(kind, key, framed)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip of %q: got %q, %v", data, got, err)
		}
		for n := range framed {
			rejected("proper prefix", framed[:n])
		}
		mask = max(mask, 1)
		for i := range framed {
			framed[i] ^= mask
			rejected("one byte changed", framed)
			framed[i] ^= mask
		}
	})
}
