// Resume differential suite: every shipped spec is solved cold at its
// full depth and again as capture-at-half-depth plus a Final resume to
// full depth, across sequential and parallel worker counts on both
// legs. The complete observable result — the fingerprint
// BENCH_solver.json tracks, the ordered result slices and every
// deterministic SearchStats counter, evaluator cache traffic included —
// must be byte-identical, while the capture leg must classify strictly
// fewer nodes than the cold solve. This is the transparency contract
// behind solve sessions (package session) and the service's resume
// endpoints: deepening is a pure work split, never a different search.
// Enforced by the CI differential job.
package smoothproc_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
)

func TestResumeParityAcrossSpecs(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("specs", "*.eq"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no spec files found")
	}
	sort.Strings(matches)

	maxW := runtime.GOMAXPROCS(0)
	// (capture workers, resume workers): legs may use any worker count,
	// so cross one worker and several both ways.
	combos := [][2]int{{1, 1}, {1, maxW}, {maxW, 1}, {2, 2}}

	for _, path := range matches {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := eqlang.CompileSource(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spec := filepath.Base(path)
		t.Run(spec, func(t *testing.T) {
			full := prog.Problem()
			if full.MaxDepth < 2 {
				t.Skipf("depth %d leaves no room for a half-depth capture", full.MaxDepth)
			}
			capDepth := max(1, full.MaxDepth/2)

			cold := solver.Enumerate(context.Background(), full)
			coldFp := fingerprint(spec, cold)
			coldStats := cold.Stats.Deterministic()

			for _, combo := range combos {
				capW, resW := combo[0], combo[1]
				name := "cap-" + strconv.Itoa(capW) + "-res-" + strconv.Itoa(resW)
				t.Run(name, func(t *testing.T) {
					half := prog.Problem()
					half.MaxDepth = capDepth
					_, cp := solver.EnumerateCapture(context.Background(), half, capW)
					// A capture with a retained frontier must have classified
					// strictly fewer nodes than the cold solve — that unexplored
					// remainder is the resume's work. (A tree that fits within
					// the capture depth legitimately matches the cold count.)
					if got := cp.Nodes(); got > cold.Nodes {
						t.Fatalf("capture at depth %d classified %d nodes, more than cold's %d",
							capDepth, got, cold.Nodes)
					} else if cp.FrontierSize() > 0 && got >= cold.Nodes {
						t.Fatalf("capture at depth %d retained a frontier yet classified %d nodes, not fewer than cold's %d",
							capDepth, got, cold.Nodes)
					}

					res, err := cp.Resume(context.Background(), solver.ResumeOpts{
						MaxDepth: full.MaxDepth,
						Workers:  resW,
						Final:    true,
					})
					if err != nil {
						t.Fatalf("resume: %v", err)
					}
					if got := fingerprint(spec, res); got != coldFp {
						t.Errorf("fingerprint drifted:\n got %+v\nwant %+v", got, coldFp)
					}
					if got := res.Stats.Deterministic(); !reflect.DeepEqual(got, coldStats) {
						t.Errorf("SearchStats diverged:\n got %+v\nwant %+v", got, coldStats)
					}
					compareTraceSlices(t, resW, "solutions", res.Solutions, cold.Solutions)
					compareTraceSlices(t, resW, "frontier", res.Frontier, cold.Frontier)
					compareTraceSlices(t, resW, "dead leaves", res.DeadLeaves, cold.DeadLeaves)
					compareTraceSlices(t, resW, "visited", res.Visited, cold.Visited)
					if cp.Resumable() {
						t.Error("checkpoint still resumable after a Final resume")
					}
				})
			}
		})
	}
}

// TestCanceledCaptureResumesToCold cuts a depth-6 kahn-buffer capture
// with deadlines spread across the search and resumes every cancelled
// capture Final to depth 7: its fingerprint must equal the cold depth-7
// solve's, at one worker and at four. A stopped search commits exactly
// the prefix of the canonical order it evaluated, so no node is counted
// by the capture and then visited again by the resume.
func TestCanceledCaptureResumesToCold(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("specs", "kahn-buffer.eq"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := eqlang.CompileSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	const capDepth, fullDepth = 6, 7
	full := prog.Problem()
	full.MaxDepth = fullDepth
	cold := solver.Enumerate(context.Background(), full)
	coldFp := cold.Fingerprint()
	for _, workers := range []int{1, 4} {
		canceled, diverged := 0, 0
		for k := 0; k < 200; k++ {
			deadline := 50*time.Microsecond + time.Duration(k)*10*time.Microsecond
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			half := prog.Problem()
			half.MaxDepth = capDepth
			capRes, cp := solver.EnumerateCapture(ctx, half, workers)
			cancel()
			if !capRes.Canceled {
				continue
			}
			canceled++
			res, err := cp.Resume(context.Background(), solver.ResumeOpts{MaxDepth: fullDepth, Workers: workers, Final: true})
			if err != nil {
				t.Fatalf("w%d deadline %v: resume: %v", workers, deadline, err)
			}
			if res.Fingerprint() != coldFp {
				if diverged++; diverged <= 3 {
					t.Errorf("w%d deadline %v: capture cut at %d nodes resumed to a different search:\n got %+v\nwant %+v",
						workers, deadline, capRes.Nodes, fingerprint("kahn-buffer.eq", res), fingerprint("kahn-buffer.eq", cold))
				}
			}
		}
		if canceled == 0 {
			t.Fatalf("w%d: no deadline cut the capture", workers)
		}
		if diverged > 0 {
			t.Errorf("w%d: %d of %d cancelled captures resumed to a different search", workers, diverged, canceled)
		}
		t.Logf("w%d: %d of 200 captures cancelled", workers, canceled)
	}
}
