package store

import (
	"context"
	"errors"

	"smoothproc/internal/metrics"
)

// Measured wraps a Store with per-kind counters for /metrics: puts,
// gets, hits (found), misses (not found), corrupt reads, and payload
// bytes in each direction. List and Close pass through uncounted —
// they are introspection, not traffic.
type Measured struct {
	inner Store
	kinds map[Kind]*kindCounters
}

type kindCounters struct {
	puts, gets, hits, misses, corrupt, deletes metrics.Counter
	bytesIn, bytesOut                          metrics.Counter
}

// KindStats is a point-in-time view of one kind's counters.
type KindStats struct {
	Puts     int64 `json:"puts"`
	Gets     int64 `json:"gets"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Corrupt  int64 `json:"corrupt"`
	Deletes  int64 `json:"deletes"`
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
}

// NewMeasured wraps s. The counter set is fixed over the closed kinds.
func NewMeasured(s Store) *Measured {
	m := &Measured{inner: s, kinds: make(map[Kind]*kindCounters, len(Kinds()))}
	for _, k := range Kinds() {
		m.kinds[k] = &kindCounters{}
	}
	return m
}

// Unwrap returns the underlying store (GC and backup tooling want the
// raw backend).
func (m *Measured) Unwrap() Store { return m.inner }

// KindStats reads one kind's counters.
func (m *Measured) KindStats(k Kind) KindStats {
	c, ok := m.kinds[k]
	if !ok {
		return KindStats{}
	}
	return KindStats{
		Puts:     c.puts.Load(),
		Gets:     c.gets.Load(),
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Corrupt:  c.corrupt.Load(),
		Deletes:  c.deletes.Load(),
		BytesIn:  c.bytesIn.Load(),
		BytesOut: c.bytesOut.Load(),
	}
}

// Put implements Store.
func (m *Measured) Put(ctx context.Context, kind Kind, key Key, data []byte) error {
	err := m.inner.Put(ctx, kind, key, data)
	if c, ok := m.kinds[kind]; ok && err == nil {
		c.puts.Inc()
		c.bytesIn.Add(int64(len(data)))
	}
	return err
}

// Get implements Store.
func (m *Measured) Get(ctx context.Context, kind Kind, key Key) ([]byte, error) {
	data, err := m.inner.Get(ctx, kind, key)
	if c, ok := m.kinds[kind]; ok {
		c.gets.Inc()
		var ce *CorruptError
		switch {
		case err == nil:
			c.hits.Inc()
			c.bytesOut.Add(int64(len(data)))
		case errors.Is(err, ErrNotFound):
			c.misses.Inc()
		case errors.As(err, &ce):
			c.corrupt.Inc()
		}
	}
	return data, err
}

// List implements Store.
func (m *Measured) List(ctx context.Context, kind Kind) ([]Info, error) {
	return m.inner.List(ctx, kind)
}

// Delete implements Store.
func (m *Measured) Delete(ctx context.Context, kind Kind, key Key) error {
	err := m.inner.Delete(ctx, kind, key)
	if c, ok := m.kinds[kind]; ok && err == nil {
		c.deletes.Inc()
	}
	return err
}

// Close implements Store.
func (m *Measured) Close() error { return m.inner.Close() }
