package desc

import (
	"time"

	"smoothproc/internal/descvm"
	"smoothproc/internal/fn"
	"smoothproc/internal/metrics"
	"smoothproc/internal/trace"
)

// EvalStats counts what a description's two sides cost through an
// Evaluator: underlying TraceFn applications, hits (reads served from a
// value the caller carried instead of re-applying), and the time spent
// inside f and g. Safe for concurrent use; read it via Snapshot.
type EvalStats struct {
	FApplies metrics.Counter
	GApplies metrics.Counter
	FHits    metrics.Counter
	GHits    metrics.Counter
	FTime    metrics.Timer
	GTime    metrics.Timer
}

// Snapshot reads the stats into a plain value.
func (s *EvalStats) Snapshot() EvalSnapshot {
	return EvalSnapshot{
		FApplies: s.FApplies.Load(),
		GApplies: s.GApplies.Load(),
		FHits:    s.FHits.Load(),
		GHits:    s.GHits.Load(),
		FNanos:   s.FTime.TotalNanos(),
		GNanos:   s.GTime.TotalNanos(),
	}
}

// EvalSnapshot is a copyable point-in-time view of EvalStats.
type EvalSnapshot struct {
	// FApplies and GApplies count underlying applications of the two
	// sides.
	FApplies int64 `json:"f_applies"`
	GApplies int64 `json:"g_applies"`
	// FHits and GHits count reads of a side served from a value the
	// caller carried (see Evaluator.FHit), so hits + applies is the
	// number of times the caller needed each side.
	FHits int64 `json:"f_hits"`
	GHits int64 `json:"g_hits"`
	// FNanos and GNanos are the wall-clock nanoseconds spent inside the
	// underlying applications.
	FNanos int64 `json:"f_nanos"`
	GNanos int64 `json:"g_nanos"`
}

// CacheHits returns the total hits across both sides.
func (s EvalSnapshot) CacheHits() int64 { return s.FHits + s.GHits }

// CacheMisses returns the total underlying applications across both
// sides.
func (s EvalSnapshot) CacheMisses() int64 { return s.FApplies + s.GApplies }

// Evaluator applies a description's two sides, counting applications,
// hits and evaluation time. It keeps no memo. The §3.3 tree reaches
// every trace once, so the only reuses of f and g are the two its edge
// rule creates — f(v) from the parent's edge check read again at v's
// limit check, g(u) from u's limit check read again when u expands —
// and the tree search carries those values along its edges itself,
// reporting each reuse through FHit and GHit.
type Evaluator struct {
	d      Description
	single bool
	stats  EvalStats
	// sc holds the single-threaded path's counter increments as plain
	// ints (one goroutine, no need for the atomics); Snapshot folds them
	// into the totals.
	sc singleCounts

	// fprog and gprog are the bytecode programs of the two sides when
	// compiled evaluation was requested and the side lowers (descvm).
	// Everything above them — the caller's carried values, every
	// counter — is byte-identical between compiled and interpreted
	// evaluation, which is what keeps search fingerprints equal across
	// the two modes (the differential suite's contract). A side that
	// does not lower falls back to its interpreted Apply.
	fprog *descvm.Prog
	gprog *descvm.Prog
	// fsess and gsess are dedicated single-goroutine VM frames, set only
	// with SingleThreaded: the frame's base cache then survives the whole
	// search instead of cycling through the Prog's pool.
	fsess *descvm.Session
	gsess *descvm.Session
}

// EvalOptions configures NewEvaluator.
type EvalOptions struct {
	// Compiled lowers each side to descvm bytecode where possible; the
	// interpreter remains the oracle and the fallback.
	Compiled bool
	// SingleThreaded promises that F, G, FHit and GHit are called from
	// one goroutine only: the counters become plain increments, and each
	// compiled side gets a dedicated VM session whose frame caches
	// survive the whole search. Counts and results are identical either
	// way. The default (false) is always safe.
	SingleThreaded bool
}

// NewEvaluator builds an evaluator for d.
func NewEvaluator(d Description, opts EvalOptions) *Evaluator {
	e := &Evaluator{d: d, single: opts.SingleThreaded}
	if opts.Compiled {
		if p, ok := descvm.Compile(d.F); ok {
			e.fprog = p
			if e.single {
				e.fsess = p.NewSession()
			}
		}
		if p, ok := descvm.Compile(d.G); ok {
			e.gprog = p
			if e.single {
				e.gsess = p.NewSession()
			}
		}
	}
	return e
}

// Compiled reports whether both sides run on descvm bytecode.
func (e *Evaluator) Compiled() bool { return e.fprog != nil && e.gprog != nil }

// timedRun applies one side to t through the compiled program when there
// is one, the interpreter otherwise. Only interpreted runs are timed:
// at the paper's spec sizes two time.Now calls cost as much as a whole
// compiled evaluation, so the compiled path reports FNanos/GNanos of
// zero. That asymmetry is parity-safe — the wall-clock fields are
// excluded from fingerprints and zeroed by SearchStats.Deterministic.
func (e *Evaluator) timedRun(t trace.Trace, side fn.TraceFn, p *descvm.Prog, sess *descvm.Session, timer *metrics.Timer) fn.Tuple {
	if sess != nil {
		return sess.Eval(t)
	}
	if p != nil {
		return p.Eval(t)
	}
	start := time.Now()
	v := side.Apply(t)
	timer.ObserveSince(start)
	return v
}

// Description returns the description being evaluated.
func (e *Evaluator) Description() Description { return e.d }

// singleCounts are the counters of the single-threaded fast path; see
// Evaluator.sc.
type singleCounts struct {
	fApplies, gApplies, fHits, gHits int64
}

// Stats returns the live atomic stats. With SingleThreaded these miss
// the fast path's increments — use Snapshot, which folds both in.
func (e *Evaluator) Stats() *EvalStats { return &e.stats }

// Snapshot reads the evaluator's stats into a plain value.
func (e *Evaluator) Snapshot() EvalSnapshot {
	s := e.stats.Snapshot()
	s.FApplies += e.sc.fApplies
	s.GApplies += e.sc.gApplies
	s.FHits += e.sc.fHits
	s.GHits += e.sc.gHits
	return s
}

// SeedSnapshot forces the apply/hit counters to exactly s, compensating
// for whatever the evaluator already counted (a decoded checkpoint's
// search re-runs the Theorem 1 induction-base check, which applies both
// sides at ⊥). Wall-clock nanos are not restorable (timers have no
// setter) and are excluded from deterministic fingerprints anyway.
func (e *Evaluator) SeedSnapshot(s EvalSnapshot) {
	cur := e.Snapshot()
	e.stats.FApplies.Add(s.FApplies - cur.FApplies)
	e.stats.GApplies.Add(s.GApplies - cur.GApplies)
	e.stats.FHits.Add(s.FHits - cur.FHits)
	e.stats.GHits.Add(s.GHits - cur.GHits)
}

// count bumps one counter: the plain int on the single-goroutine path,
// the atomic otherwise.
func (e *Evaluator) count(single *int64, shared *metrics.Counter) {
	if e.single {
		*single++
	} else {
		shared.Inc()
	}
}

// F applies the description's left side to t.
func (e *Evaluator) F(t trace.Trace) fn.Tuple {
	e.count(&e.sc.fApplies, &e.stats.FApplies)
	return e.timedRun(t, e.d.F, e.fprog, e.fsess, &e.stats.FTime)
}

// G applies the description's right side to t.
func (e *Evaluator) G(t trace.Trace) fn.Tuple {
	e.count(&e.sc.gApplies, &e.stats.GApplies)
	return e.timedRun(t, e.d.G, e.gprog, e.gsess, &e.stats.GTime)
}

// FHit counts one read of f served from a value the caller carried
// instead of calling F again.
func (e *Evaluator) FHit() { e.count(&e.sc.fHits, &e.stats.FHits) }

// GHit is FHit for g.
func (e *Evaluator) GHit() { e.count(&e.sc.gHits, &e.stats.GHits) }
