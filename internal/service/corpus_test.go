package service

import (
	"net/http"
	"testing"

	"smoothproc/internal/netgen"
)

// TestCorpusSpecSolvesThroughService uploads a generated check-tier
// corpus spec and solves it by hash — the same path `smoothsolve corpus`
// instances take when fed to a live smoothd.
func TestCorpusSpecSolvesThroughService(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	in, err := netgen.GenerateInstance("pipeline", 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/specs", SpecRequest{Source: in.Source})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload %s: status %d: %s", in.Name, resp.StatusCode, body)
	}
	info := decode[SpecInfo](t, body)
	if info.Plan == nil {
		t.Fatalf("upload %s carries no plan", in.Name)
	}

	resp, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{SpecHash: info.Hash, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve %s: status %d: %s", in.Name, resp.StatusCode, body)
	}
	job := decode[JobView](t, body)
	if job.State != JobDone || job.Result == nil || job.Result.Truncated {
		t.Fatalf("%s did not finish cleanly: %+v", in.Name, job)
	}
	if len(job.Result.Solutions) == 0 {
		t.Errorf("%s (%s): no solutions through the service", in.Name, in.Shape)
	}
}

// TestStressInstanceAdmission drives calibrated stress instances
// through smoothd's admission gate end to end. A ~1e5-node instance has
// a planner floor inside the default 500k budget and must complete; an
// instance calibrated two orders of magnitude past the budget must be
// rejected with a structured 422 carrying the plan estimate — never a
// crash, never a scheduler submission.
func TestStressInstanceAdmission(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})

	// Within budget: seed 3 is the twin-buffer instance whose real tree
	// is ~156k nodes with planner floor ~56k, under the 500k cap.
	s, err := netgen.Stress(3, netgen.StressConfig{})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: s.Source, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s (%s): status %d: %s", s.Name, s.Shape, resp.StatusCode, body)
	}
	job := decode[JobView](t, body)
	if job.State != JobDone || job.Result == nil || job.Result.Truncated {
		t.Fatalf("%s did not finish cleanly: %+v", s.Name, job)
	}
	if uint64(job.Result.Nodes) < s.PredictedMin {
		t.Errorf("%s: %d nodes below planner floor %d", s.Name, job.Result.Nodes, s.PredictedMin)
	}

	// Over budget: calibrate the same generator to 5e7 nodes; the floor
	// provably exceeds the budget, so admission fires before any search.
	big, err := netgen.Stress(3, netgen.StressConfig{TargetNodes: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: big.Source, Wait: true})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("%s (%s): status %d, want 422: %s", big.Name, big.Shape, resp.StatusCode, body)
	}
	eb := decode[ErrorBody](t, body)
	if eb.Plan == nil {
		t.Fatalf("422 body carries no plan estimate: %s", body)
	}
	if eb.Plan.PredictedMinNodes <= uint64(eb.Plan.MaxNodes) {
		t.Errorf("estimate does not justify the rejection: floor %d vs budget %d",
			eb.Plan.PredictedMinNodes, eb.Plan.MaxNodes)
	}
	if submitted, _, _, _ := srv.sched.Counts(); submitted != 1 {
		t.Errorf("scheduler saw %d jobs, want 1 (only the admitted stress solve)", submitted)
	}
}
