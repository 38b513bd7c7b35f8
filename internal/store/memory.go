package store

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"time"
)

// Memory is the in-process Store: the default backend when smoothd runs
// without -data-dir, and the test double everywhere. Contents die with
// the process — durability is the Disk backend's job — but the caching,
// metrics and GC layers behave identically over both.
//
// Safe for concurrent use: one RWMutex over a per-kind map. Payloads
// are copied on Put and Get so callers can never alias store internals.
type Memory struct {
	mu    sync.RWMutex
	kinds map[Kind]map[Key]memObj
}

type memObj struct {
	data []byte
	mod  time.Time
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{kinds: make(map[Kind]map[Key]memObj)}
}

// Put implements Store.
func (m *Memory) Put(ctx context.Context, kind Kind, key Key, data []byte) error {
	if err := check(ctx, kind, key); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	km := m.kinds[kind]
	if km == nil {
		km = make(map[Key]memObj)
		m.kinds[kind] = km
	}
	km[key] = memObj{data: bytes.Clone(data), mod: time.Now()}
	return nil
}

// Get implements Store.
func (m *Memory) Get(ctx context.Context, kind Kind, key Key) ([]byte, error) {
	if err := check(ctx, kind, key); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	o, ok := m.kinds[kind][key]
	if !ok {
		return nil, ErrNotFound
	}
	return bytes.Clone(o.data), nil
}

// List implements Store.
func (m *Memory) List(ctx context.Context, kind Kind) ([]Info, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	km := m.kinds[kind]
	out := make([]Info, 0, len(km))
	for k, o := range km {
		out = append(out, Info{Kind: kind, Key: k, Size: int64(len(o.data)), ModTime: o.mod})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Delete implements Store.
func (m *Memory) Delete(ctx context.Context, kind Kind, key Key) error {
	if err := check(ctx, kind, key); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.kinds[kind][key]; !ok {
		return ErrNotFound
	}
	delete(m.kinds[kind], key)
	return nil
}

// Close implements Store.
func (m *Memory) Close() error { return nil }
