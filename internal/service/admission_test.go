package service

import (
	"net/http"
	"testing"
)

// overBudget is the crafted admission-control victim: a Kahn buffer
// over a 10-symbol alphabet at depth 12. Theorem 1 auto-admits every
// input event, so the search is *guaranteed* to visit Σ 10^i ≈ 1.1e12
// nodes — six orders of magnitude over the default 500k budget. The
// static plan proves that floor without running anything.
const overBudget = `alphabet a = ints 0 .. 9
alphabet e = ints 0 .. 9
depth 12
desc e <- a
`

// TestAdmissionRejectsBeforeScheduler holds the acceptance criterion:
// a predictably over-budget solve gets a structured 422 carrying the
// plan estimate, and never reaches the scheduler — no job is submitted,
// no worker burned.
func TestAdmissionRejectsBeforeScheduler(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})

	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: overBudget, Wait: true})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	eb := decode[ErrorBody](t, body)
	if eb.Plan == nil {
		t.Fatalf("422 body carries no plan estimate: %s", body)
	}
	if eb.Plan.PredictedMinNodes <= uint64(eb.Plan.MaxNodes) {
		t.Errorf("estimate does not justify the rejection: floor %d vs budget %d",
			eb.Plan.PredictedMinNodes, eb.Plan.MaxNodes)
	}
	if eb.Plan.Depth != 12 {
		t.Errorf("estimate depth = %d, want 12", eb.Plan.Depth)
	}

	// The stream endpoint runs the same gate.
	resp, body = postJSON(t, ts.URL+"/v1/solve/stream", SolveRequest{Source: overBudget})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("stream status %d, want 422: %s", resp.StatusCode, body)
	}

	if submitted, _, _, _ := srv.sched.Counts(); submitted != 0 {
		t.Errorf("scheduler saw %d jobs; admission control must fire before submission", submitted)
	}
	if n, ok := srv.Metrics().Get("admission", "rejected over budget"); !ok || n != 2 {
		t.Errorf("rejected counter = %d (%v), want 2", n, ok)
	}
	if n, _ := srv.Metrics().Get("admission", "admitted"); n != 0 {
		t.Errorf("admitted counter = %d, want 0", n)
	}
}

// TestAdmissionAdmitsWithinBudget: the same spec at its own shallow
// depth sails through, and the admitted counter says the gate ran.
func TestAdmissionAdmitsWithinBudget(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})

	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: overBudget, Depth: 2, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	job := decode[JobView](t, body)
	if job.State != JobDone || job.Result == nil || job.Result.Truncated {
		t.Fatalf("admitted solve did not finish cleanly: %+v", job)
	}
	if n, ok := srv.Metrics().Get("admission", "admitted"); !ok || n != 1 {
		t.Errorf("admitted counter = %d (%v), want 1", n, ok)
	}
	if submitted, _, _, _ := srv.sched.Counts(); submitted != 1 {
		t.Errorf("scheduler saw %d jobs, want 1", submitted)
	}
}

// twoGroups has two independent descriptions on disjoint channels — a
// partition of width 2.
const twoGroups = `alphabet a = {0}
alphabet e = {0}
alphabet x = {0}
alphabet y = {0}
depth 4
desc e <- a
desc y <- x
`

// TestWorkerCountDoesNotSplitResultCache: a request's worker count does
// not change the answer, so it must not change the cache entry either.
// Solves of one spec at workers 1, 2 and unset share one result.
func TestWorkerCountDoesNotSplitResultCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, ts.URL+"/v1/specs", SpecRequest{Source: twoGroups})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	info := decode[SpecInfo](t, body)
	if info.Plan == nil || info.Plan.PartitionWidth != 2 {
		t.Fatalf("spec upload plan = %+v, want partition width 2", info.Plan)
	}

	for i, workers := range []int{1, 2, 0} {
		resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{SpecHash: info.Hash, Workers: workers, Wait: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers %d: status %d: %s", workers, resp.StatusCode, body)
		}
		job := decode[JobView](t, body)
		if job.Result == nil {
			t.Fatalf("workers %d: no result: %s", workers, body)
		}
		if want := i > 0; job.Result.Cached != want {
			t.Errorf("workers %d: cached = %t, want %t", workers, job.Result.Cached, want)
		}
		if job.Params.Workers != 1 {
			t.Errorf("workers %d: params.workers = %d, want 1", workers, job.Params.Workers)
		}
	}
}
