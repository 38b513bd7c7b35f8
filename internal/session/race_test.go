package session

import (
	"context"
	"sync"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
)

// TestRaceConcurrentResumeAndReaders drives one session from many
// goroutines under the race detector: concurrent deepening solves with
// streaming callbacks, replays, stat readers and delta-solves. Solves
// serialize on the session lock; readers interleave freely; the streamed
// callbacks append to goroutine-local buffers handed off via a mutex —
// the shape the service's streaming endpoint uses.
func TestRaceConcurrentResumeAndReaders(t *testing.T) {
	ctx := context.Background()
	s := dfmSession(t)
	if _, _, err := s.Solve(ctx, Options{Depth: 1}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	streams := make(map[int][]string)

	var wg sync.WaitGroup
	// Deepening writers: each pushes the session at least as deep as its
	// target, streaming the canonical prefix + new solutions.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var got []string
			_, _, err := s.Solve(ctx, Options{
				Depth: 2 + i%3,
				OnSolution: func(tr trace.Trace) {
					got = append(got, tr.String())
				},
			})
			if err != nil {
				// A depth-shrink error is a legitimate race outcome: another
				// goroutine deepened the session past this one's target
				// before it ran. Nothing was streamed, so skip the record.
				return
			}
			mu.Lock()
			streams[i] = got
			mu.Unlock()
		}(i)
	}
	// Readers: poll the session's view while solves run.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = s.Depth()
				_ = s.Nodes()
				_ = s.FrontierSize()
				if res, ok := s.Result(); ok {
					_ = res.Solutions.Len()
				}
				_, _, _ = s.Counts()
			}
		}()
	}
	// Delta readers: projection and differential check against the live
	// session (skipping while the session is still truncated or racing).
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				d, err := s.Delta(2, "b")
				if err != nil {
					continue
				}
				if _, err := s.DeltaCheck(ctx, d); err != nil {
					t.Errorf("delta check under concurrency: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	// Every successful stream must be a prefix-consistent canonical
	// sequence: the streamed solutions of a solve at depth d are exactly
	// the solutions of the session's result after that solve, and all
	// streams agree on their common prefix.
	mu.Lock()
	defer mu.Unlock()
	for i, a := range streams {
		for j, b := range streams {
			if j <= i {
				continue
			}
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			for k := 0; k < n; k++ {
				if a[k] != b[k] {
					t.Fatalf("streams %d and %d disagree at %d: %q vs %q", i, j, k, a[k], b[k])
				}
			}
		}
	}
}

// TestRaceReadersBuildPublishedResults: a published Result is read
// without a lock while other goroutines deepen its session, whose legs
// add nodes to the same tree past the Result's snapshot. Readers build
// the solution, frontier and dead-leaf traces, and hold each to the
// Key, the rendering and the single trace the list gives for it without
// building them all, and the Result's fingerprint to its first reading:
// a record a writer moved or wrote again under a reader would show as a
// mismatch, and under -race as a race.
func TestRaceReadersBuildPublishedResults(t *testing.T) {
	ctx := context.Background()
	prog, err := eqlang.CompileSource(bufferSrc)
	if err != nil {
		t.Fatal(err)
	}
	s := New("buffer", prog.Problem(), prog.System)
	if _, _, err := s.Solve(ctx, Options{Depth: 1}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The tree outgrows several chunks on the way to depth 7.
			for d := 2; d <= 7; d++ {
				// A depth below the session's is a legitimate race outcome.
				_, _, _ = s.Solve(ctx, Options{Depth: d})
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				res, ok := s.Result()
				if !ok {
					continue
				}
				fp := res.Fingerprint()
				var b []byte
				for _, l := range []solver.NodeList{res.Solutions, res.Frontier, res.DeadLeaves} {
					for k, tr := range l.Traces() {
						b = l.AppendString(b[:0], k)
						if l.Key(k) != tr.Key() || string(b) != tr.String() || !l.At(k).Equal(tr) {
							t.Errorf("node %d of a published list: key %x, %s, built %s; trace key %x, %s",
								k, l.Key(k), b, l.At(k), tr.Key(), tr)
							return
						}
					}
				}
				if got := res.Fingerprint(); got != fp {
					t.Errorf("a published result's fingerprint moved from %#x to %#x", fp, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRaceConcurrentEncodeDuringResume hammers the persistence surface
// the durable store added: goroutines Encode the session while others
// deepen it. Every snapshot taken mid-flight must be internally
// consistent — it decodes cleanly against the same problem, and a
// session rebuilt from it deepens to exactly the reference answer. A
// torn snapshot (frontier from one depth, commit pointer from another)
// would either fail Decode or diverge on the deepen.
func TestRaceConcurrentEncodeDuringResume(t *testing.T) {
	ctx := context.Background()
	prog, err := eqlang.CompileSource(dfmSrc)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Problem()
	s := New("dfm", p, prog.System)
	if _, _, err := s.Solve(ctx, Options{Depth: 1}); err != nil {
		t.Fatal(err)
	}

	// Reference: the depth-4 answer a never-snapshotted session reaches.
	ref := New("dfm-ref", p, prog.System)
	refRes, _, err := ref.Solve(ctx, Options{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := keys(refRes.Solutions.Traces())

	var mu sync.Mutex
	var records [][]byte

	var wg sync.WaitGroup
	// Writers deepen the session toward depth 4 while encoders snapshot.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Depth-shrink errors are legitimate when another goroutine
			// already deepened past this target.
			_, _, _ = s.Solve(ctx, Options{Depth: 2 + i})
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				data, err := s.Encode()
				if err != nil {
					t.Errorf("encode under concurrent resume: %v", err)
					return
				}
				mu.Lock()
				records = append(records, data)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	for i, data := range records {
		restored, err := Decode(data, "dfm", p, prog.System)
		if err != nil {
			t.Fatalf("record %d does not decode: %v", i, err)
		}
		if d := restored.Depth(); d < 1 || d > 4 {
			t.Fatalf("record %d restored at impossible depth %d", i, d)
		}
		// Three writers, each deepening once at most, and no replays.
		if _, resumes, replays := restored.Counts(); resumes > 3 || replays != 0 {
			t.Fatalf("record %d restored %d resumes and %d replays", i, resumes, replays)
		}
		res, _, err := restored.Solve(ctx, Options{Depth: 4})
		if err != nil {
			t.Fatalf("record %d: deepen after restore: %v", i, err)
		}
		if got := keys(res.Solutions.Traces()); !equalStrings(got, want) {
			t.Fatalf("record %d: restored session diverged: %v, want %v", i, got, want)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
