// Resume differential suite: every shipped spec is solved cold at its
// full depth and again as a capture at half depth plus a Final resume to
// full depth, each side in one leg or in two. A two-leg capture is cut
// by a node budget and finished by a capture-mode resume at the same
// depth, as a session does when its budget grows; a two-leg resume
// deepens to an intermediate depth before the Final leg, as a session
// does when it is deepened step by step. The complete observable result
// — the fingerprint BENCH_solver.json tracks, the ordered result slices
// and every deterministic SearchStats counter, evaluation counts
// included — must be byte-identical, while the capture must classify
// strictly fewer nodes than the cold solve. This is the transparency
// contract behind solve sessions (package session) and the service's
// resume endpoints: deepening is a pure work split, never a different
// search, however the chain is cut. Enforced by the CI differential job.
package smoothproc_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
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

	ctx := context.Background()
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
			midDepth := (capDepth + full.MaxDepth) / 2

			cold := solver.Enumerate(ctx, full)
			coldFp := fingerprint(spec, cold)
			coldStats := cold.Stats.Deterministic()
			// The nodes a capture at capDepth classifies: the cold tree's
			// levels up to that depth.
			capNodes := 0
			for _, l := range cold.Stats.Levels[:capDepth+1] {
				capNodes += l.Nodes
			}

			// cap-N-res-M: the capture in N legs, the resume in M.
			for _, legs := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
				capLegs, resLegs := legs[0], legs[1]
				t.Run(fmt.Sprintf("cap-%d-res-%d", capLegs, resLegs), func(t *testing.T) {
					half := prog.Problem()
					half.MaxDepth = capDepth
					if capLegs == 2 {
						half.MaxNodes = max(1, capNodes/2)
					}
					_, cp := solver.EnumerateCapture(ctx, half)
					if capLegs == 2 {
						if _, err := cp.Resume(ctx, solver.ResumeOpts{}); err != nil {
							t.Fatalf("budget resume: %v", err)
						}
					}
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

					if resLegs == 2 {
						if _, err := cp.Resume(ctx, solver.ResumeOpts{MaxDepth: midDepth}); err != nil {
							t.Fatalf("resume to depth %d: %v", midDepth, err)
						}
					}
					res, err := cp.Resume(ctx, solver.ResumeOpts{MaxDepth: full.MaxDepth, Final: true})
					if err != nil {
						t.Fatalf("resume: %v", err)
					}
					if got := fingerprint(spec, res); got != coldFp {
						t.Errorf("fingerprint drifted:\n got %+v\nwant %+v", got, coldFp)
					}
					if got := res.Stats.Deterministic(); !reflect.DeepEqual(got, coldStats) {
						t.Errorf("SearchStats diverged:\n got %+v\nwant %+v", got, coldStats)
					}
					compareTraceSlices(t, "solutions", res.Solutions, cold.Solutions)
					compareTraceSlices(t, "frontier", res.Frontier, cold.Frontier)
					compareTraceSlices(t, "dead leaves", res.DeadLeaves, cold.DeadLeaves)
					compareTraceSlices(t, "visited", res.Visited, cold.Visited)
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
// solve's. A stopped search commits exactly
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
	canceled, diverged := 0, 0
	for k := 0; k < 200; k++ {
		deadline := 50*time.Microsecond + time.Duration(k)*10*time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		half := prog.Problem()
		half.MaxDepth = capDepth
		capRes, cp := solver.EnumerateCapture(ctx, half)
		cancel()
		if !capRes.Canceled {
			continue
		}
		canceled++
		res, err := cp.Resume(context.Background(), solver.ResumeOpts{MaxDepth: fullDepth, Final: true})
		if err != nil {
			t.Fatalf("deadline %v: resume: %v", deadline, err)
		}
		if res.Fingerprint() != coldFp {
			if diverged++; diverged <= 3 {
				t.Errorf("deadline %v: capture cut at %d nodes resumed to a different search:\n got %+v\nwant %+v",
					deadline, capRes.Nodes, fingerprint("kahn-buffer.eq", res), fingerprint("kahn-buffer.eq", cold))
			}
		}
	}
	if canceled == 0 {
		t.Fatal("no deadline cut the capture")
	}
	if diverged > 0 {
		t.Errorf("%d of %d cancelled captures resumed to a different search", diverged, canceled)
	}
	t.Logf("%d of 200 captures cancelled", canceled)
}
