package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Disk is the durable Store behind smoothd's -data-dir. Layout:
//
//	<dir>/<kind>/<key[:2]>/<key>
//
// — one file per object, fanned out over 256 prefix directories so no
// directory grows unbounded. Every file opens with a fixed header
// (magic, kind, payload SHA-256) that Get verifies before returning a
// byte; a blob that fails verification is reported as *CorruptError and
// never served. Writes go through a temp file in the same directory and
// an atomic rename, so a crash mid-Put leaves either the old object or
// none — never a torn one.
//
// Safe for concurrent use within one process (an RWMutex serializes
// writers; the rename makes cross-process readers safe too).
type Disk struct {
	dir string
	mu  sync.RWMutex
}

// diskMagic opens every object file: format name and version.
var diskMagic = []byte("SPOB1")

// NewDisk opens (creating if needed) a disk store rooted at dir.
func NewDisk(dir string) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty data dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	return &Disk{dir: dir}, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

func (d *Disk) path(kind Kind, key Key) string {
	return filepath.Join(d.dir, string(kind), string(key[:2]), string(key))
}

// frame wraps payload in the integrity header.
func frame(kind Kind, data []byte) []byte {
	sum := sha256.Sum256(data)
	out := make([]byte, 0, len(diskMagic)+1+len(kind)+len(sum)+8+len(data))
	out = append(out, diskMagic...)
	out = append(out, byte(len(kind)))
	out = append(out, kind...)
	out = append(out, sum[:]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(data)))
	return append(out, data...)
}

// unframe verifies the header and returns the payload.
func unframe(kind Kind, key Key, b []byte) ([]byte, error) {
	corrupt := func(reason string) ([]byte, error) {
		return nil, &CorruptError{Kind: kind, Key: key, Reason: reason}
	}
	if len(b) < len(diskMagic)+1 || !bytes.Equal(b[:len(diskMagic)], diskMagic) {
		return corrupt("bad magic")
	}
	b = b[len(diskMagic):]
	kl := int(b[0])
	b = b[1:]
	if len(b) < kl {
		return corrupt("truncated kind")
	}
	if Kind(b[:kl]) != kind {
		return corrupt(fmt.Sprintf("object is of kind %q", b[:kl]))
	}
	b = b[kl:]
	if len(b) < sha256.Size+8 {
		return corrupt("truncated header")
	}
	var want [sha256.Size]byte
	copy(want[:], b)
	b = b[sha256.Size:]
	n := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if uint64(len(b)) != n {
		return corrupt(fmt.Sprintf("payload is %d bytes, header says %d", len(b), n))
	}
	if sha256.Sum256(b) != want {
		return corrupt("payload hash mismatch")
	}
	return b, nil
}

// headerSize is the framing overhead of every object file.
func headerSize(kind Kind) int64 {
	return int64(len(diskMagic) + 1 + len(kind) + sha256.Size + 8)
}

// Put implements Store.
func (d *Disk) Put(ctx context.Context, kind Kind, key Key, data []byte) error {
	if err := check(ctx, kind, key); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	path := d.path(kind, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	if _, err := tmp.Write(frame(kind, data)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	return nil
}

// Get implements Store.
func (d *Disk) Get(ctx context.Context, kind Kind, key Key) ([]byte, error) {
	if err := check(ctx, kind, key); err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	b, err := os.ReadFile(d.path(kind, key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: get %s/%s: %w", kind, key, err)
	}
	return unframe(kind, key, b)
}

// List implements Store.
func (d *Disk) List(ctx context.Context, kind Kind) ([]Info, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	root := filepath.Join(d.dir, string(kind))
	prefixes, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: list %s: %w", kind, err)
	}
	var out []Info
	for _, p := range prefixes {
		if !p.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(root, p.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: list %s: %w", kind, err)
		}
		for _, f := range files {
			key := Key(f.Name())
			if !key.Valid() || strings.HasPrefix(f.Name(), ".put-") {
				continue // temp files and strays are not objects
			}
			fi, err := f.Info()
			if err != nil {
				continue // raced with a delete
			}
			out = append(out, Info{Kind: kind, Key: key, Size: fi.Size() - headerSize(kind), ModTime: fi.ModTime()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Delete implements Store.
func (d *Disk) Delete(ctx context.Context, kind Kind, key Key) error {
	if err := check(ctx, kind, key); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	err := os.Remove(d.path(kind, key))
	if os.IsNotExist(err) {
		return ErrNotFound
	}
	return err
}

// Close implements Store.
func (d *Disk) Close() error { return nil }
