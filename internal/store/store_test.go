package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// backends runs a subtest against Memory and Disk, so both satisfy the
// same contract.
func backends(t *testing.T, run func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("memory", func(t *testing.T) { run(t, NewMemory()) })
	t.Run("disk", func(t *testing.T) {
		d, err := NewDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		run(t, d)
	})
}

func TestStoreRoundTrip(t *testing.T) {
	backends(t, func(t *testing.T, s Store) {
		ctx := context.Background()
		data := []byte("alphabet a = {0}\ndepth 2\ndesc a <- [0]\n")
		key := KeyOf(data)

		if _, err := s.Get(ctx, KindSpec, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("get before put: %v, want ErrNotFound", err)
		}
		if err := s.Put(ctx, KindSpec, key, data); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(ctx, KindSpec, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("got %q, want %q", got, data)
		}
		// Kinds are namespaces: the same key under another kind is absent.
		if _, err := s.Get(ctx, KindResult, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("cross-kind get: %v, want ErrNotFound", err)
		}

		infos, err := s.List(ctx, KindSpec)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 1 || infos[0].Key != key || infos[0].Kind != KindSpec || infos[0].Size != int64(len(data)) {
			t.Fatalf("list %+v", infos)
		}

		if err := s.Delete(ctx, KindSpec, key); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(ctx, KindSpec, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("double delete: %v, want ErrNotFound", err)
		}
		if _, err := s.Get(ctx, KindSpec, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("get after delete: %v, want ErrNotFound", err)
		}
	})
}

func TestStoreArgValidation(t *testing.T) {
	backends(t, func(t *testing.T, s Store) {
		ctx := context.Background()
		good := KeyOf([]byte("x"))
		if err := s.Put(ctx, Kind("nope"), good, nil); err == nil {
			t.Fatal("invalid kind accepted")
		}
		for _, bad := range []Key{"", "short", Key("ZZ" + good[2:]), good + "00"} {
			if err := s.Put(ctx, KindSpec, bad, nil); err == nil {
				t.Fatalf("invalid key %q accepted", bad)
			}
		}
		canceled, cancel := context.WithCancel(ctx)
		cancel()
		if err := s.Put(canceled, KindSpec, good, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled put: %v", err)
		}
	})
}

// TestStoreAliasing: mutating a slice after Put, or the slice returned
// by Get, must not corrupt the stored object.
func TestStoreAliasing(t *testing.T) {
	backends(t, func(t *testing.T, s Store) {
		ctx := context.Background()
		data := []byte("payload-one")
		key := KeyOf(data)
		if err := s.Put(ctx, KindResult, key, data); err != nil {
			t.Fatal(err)
		}
		data[0] = 'X'
		got, err := s.Get(ctx, KindResult, key)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "payload-one" {
			t.Fatalf("put aliased its input: %q", got)
		}
		got[0] = 'Y'
		again, err := s.Get(ctx, KindResult, key)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != "payload-one" {
			t.Fatalf("get aliased store internals: %q", again)
		}
	})
}

// TestDiskDurability: a second Disk over the same directory sees the
// first one's objects — the restart story.
func TestDiskDurability(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d1, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("survives restarts")
	key := KeyOf(data)
	if err := d1.Put(ctx, KindSession, key, data); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d2.Get(ctx, KindSession, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q after reopen", got)
	}
}

// TestDiskCorrupt: a blob whose bytes rot on disk is reported as
// *CorruptError — never served, never a panic.
func TestDiskCorrupt(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("to be rotted")
	key := KeyOf(data)
	if err := d.Put(ctx, KindSpec, key, data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spec", string(key[:2]), string(key))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 6, len(raw) - 3, len(raw) - len(data) + 2} {
		mut := bytes.Clone(raw)
		mut[i] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := d.Get(ctx, KindSpec, key)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("flip at %d: got %v, want *CorruptError", i, err)
		}
		if ce.Kind != KindSpec || ce.Key != key || ce.Reason == "" {
			t.Fatalf("flip at %d: unstructured corrupt error %+v", i, ce)
		}
	}
	// Truncation fails closed too.
	if err := os.WriteFile(path, raw[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := d.Get(ctx, KindSpec, key); !errors.As(err, &ce) {
		t.Fatalf("truncated object: got %v, want *CorruptError", err)
	}
	// A wrong-kind read of a valid object is also refused.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "result", string(key[:2]), string(key))
	if err := os.MkdirAll(filepath.Dir(bad), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(ctx, KindResult, key); !errors.As(err, &ce) {
		t.Fatalf("cross-kind object: got %v, want *CorruptError", err)
	}
}

func TestGC(t *testing.T) {
	backends(t, func(t *testing.T, s Store) {
		ctx := context.Background()
		var keys []Key
		for i := 0; i < 5; i++ {
			data := bytes.Repeat([]byte{byte('a' + i)}, 100)
			k := KeyOf(data)
			keys = append(keys, k)
			if err := s.Put(ctx, KindResult, k, data); err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond) // distinct mtimes, oldest-first order
		}
		deleted, err := GC(ctx, s, 250)
		if err != nil {
			t.Fatal(err)
		}
		if len(deleted) != 3 {
			t.Fatalf("GC deleted %d objects, want 3 (%+v)", len(deleted), deleted)
		}
		for _, in := range deleted[:2] {
			if in.Key != keys[0] && in.Key != keys[1] {
				t.Fatalf("GC deleted %s before older objects", in.Key)
			}
		}
		left, err := s.List(ctx, KindResult)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 2 {
			t.Fatalf("%d objects left, want 2", len(left))
		}
		// Idempotent under the same bound.
		again, err := GC(ctx, s, 250)
		if err != nil || len(again) != 0 {
			t.Fatalf("second GC: %v deleted %d", err, len(again))
		}
	})
}

func TestMeasured(t *testing.T) {
	ctx := context.Background()
	m := NewMeasured(NewMemory())
	data := []byte("counted")
	key := KeyOf(data)

	if _, err := m.Get(ctx, KindSpec, key); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if err := m.Put(ctx, KindSpec, key, data); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(ctx, KindSpec, key); err != nil {
		t.Fatal(err)
	}
	st := m.KindStats(KindSpec)
	want := KindStats{Puts: 1, Gets: 2, Hits: 1, Misses: 1, BytesIn: int64(len(data)), BytesOut: int64(len(data))}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if other := m.KindStats(KindResult); other != (KindStats{}) {
		t.Fatalf("uninvolved kind has counts %+v", other)
	}
	if err := m.Delete(ctx, KindSpec, key); err != nil {
		t.Fatal(err)
	}
	if got := m.KindStats(KindSpec).Deletes; got != 1 {
		t.Fatalf("deletes %d, want 1", got)
	}
}

// TestMeasuredCorrupt: the corrupt counter ticks when the backend
// refuses a rotted blob.
func TestMeasuredCorrupt(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeasured(d)
	ctx := context.Background()
	data := []byte("rot me")
	key := KeyOf(data)
	if err := m.Put(ctx, KindSession, key, data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "session", string(key[:2]), string(key))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := m.Get(ctx, KindSession, key); !errors.As(err, &ce) {
		t.Fatalf("got %v", err)
	}
	if st := m.KindStats(KindSession); st.Corrupt != 1 || st.Hits != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDiskListIgnoresStrays(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := []byte("real object")
	key := KeyOf(data)
	if err := d.Put(ctx, KindSpec, key, data); err != nil {
		t.Fatal(err)
	}
	// A leftover temp file from a crashed Put and a stray note.
	pdir := filepath.Join(dir, "spec", string(key[:2]))
	for _, name := range []string{".put-12345", "README"} {
		if err := os.WriteFile(filepath.Join(pdir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := d.List(ctx, KindSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Key != key {
		t.Fatalf("list picked up strays: %+v", infos)
	}
}

func TestKeyOf(t *testing.T) {
	k := KeyOf([]byte("abc"))
	if want := Key(fmt.Sprintf("%x", [32]byte{0xba, 0x78, 0x16, 0xbf, 0x8f, 0x01, 0xcf, 0xea, 0x41, 0x41, 0x40, 0xde, 0x5d, 0xae, 0x22, 0x23, 0xb0, 0x03, 0x61, 0xa3, 0x96, 0x17, 0x7a, 0x9c, 0xb4, 0x10, 0xff, 0x61, 0xf2, 0x00, 0x15, 0xad})); k != want {
		t.Fatalf("KeyOf = %s, want %s", k, want)
	}
	if !k.Valid() {
		t.Fatal("well-formed key reported invalid")
	}
}
