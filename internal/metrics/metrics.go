// Package metrics is the measurement substrate for the reproduction's
// service and simulation machinery: allocation-conscious counters,
// timers and histograms that smoothd, the store and the network
// scheduler thread through their hot paths.
//
// Everything here is safe for concurrent use — smoothd's handlers and
// its request pool update one server's counters at once — and reads
// back into plain-value snapshots, so stats structs stay copyable and
// vet-clean (no lock or atomic is ever copied).
package metrics

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use. A Counter must not be copied after first use; hold it in
// a long-lived struct and read it via Load.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Timer accumulates wall-clock durations (total and count) using the
// monotonic clock. The zero value is ready to use; a Timer must not be
// copied after first use.
type Timer struct {
	totalNs atomic.Int64
	count   atomic.Int64
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	t.totalNs.Add(int64(d))
	t.count.Add(1)
}

// ObserveSince records the duration elapsed since start — the explicit
// form of Start for hot paths that want to avoid a closure allocation.
func (t *Timer) ObserveSince(start time.Time) { t.Observe(time.Since(start)) }

// Start begins a measurement and returns the function that ends it:
//
//	defer timer.Start()()
func (t *Timer) Start() func() {
	start := time.Now()
	return func() { t.ObserveSince(start) }
}

// TotalNanos returns the accumulated nanoseconds.
func (t *Timer) TotalNanos() int64 { return t.totalNs.Load() }

// Count returns the number of observations.
func (t *Timer) Count() int64 { return t.count.Load() }

// histBuckets is the number of power-of-two histogram buckets; bucket i
// counts values v with 2^(i-1) < v ≤ 2^i (bucket 0 counts v ≤ 1, the last
// bucket absorbs everything larger). 32 buckets cover every count this
// repository can produce.
const histBuckets = 32

// Histogram is a power-of-two-bucketed distribution of non-negative
// integer observations — level fan-outs in the tree search, channel
// backlogs in the scheduler. The zero value is ready to use; a Histogram
// must not be copied after first use.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // smallest b with v ≤ 2^b
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records one value; negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot reads the histogram into a plain value.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: int64(1) << i, N: n})
		}
	}
	return s
}

// Bucket is one non-empty histogram bucket: N observations ≤ Le (and
// greater than the previous bucket's bound).
type Bucket struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// HistSnapshot is a copyable point-in-time view of a Histogram.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the mean observation, or 0 with no observations.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// String renders the snapshot compactly, e.g.
// "n=12 sum=30 max=8 [≤1:4 ≤2:5 ≤8:3]".
func (s HistSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d sum=%d max=%d", s.Count, s.Sum, s.Max)
	if len(s.Buckets) > 0 {
		b.WriteString(" [")
		for i, bk := range s.Buckets {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "≤%d:%d", bk.Le, bk.N)
		}
		b.WriteString("]")
	}
	return b.String()
}
