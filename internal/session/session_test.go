package session

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
)

// dfmSrc is the Figure 2 discriminated fair merge (specs/fig2-dfm.eq):
// channels b and c are eliminable, which the delta tests rely on.
const dfmSrc = `
alphabet b = {0}
alphabet c = {1}
alphabet d = {0, 1}
depth 4
desc even(d) <- b
desc odd(d)  <- c
desc b <- [0]
desc c <- [1]
`

// bufferSrc is Kahn's unbounded buffer (specs/kahn-buffer.eq): its sides
// are independent, so the search auto-admits every input event
// (Theorem 1) and those sons carry no f.
const bufferSrc = `
alphabet a = {0, 1}
alphabet e = {0, 1}
depth 4
desc e <- a
`

func dfmSession(t *testing.T) *Session {
	t.Helper()
	prog, err := eqlang.CompileSource(dfmSrc)
	if err != nil {
		t.Fatal(err)
	}
	return New("dfm", prog.Problem(), prog.System)
}

func keys(ts []trace.Trace) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

func TestSessionLifecycle(t *testing.T) {
	ctx := context.Background()
	s := dfmSession(t)
	if _, ok := s.Result(); ok {
		t.Fatal("fresh session reports a result")
	}

	res2, out, err := s.Solve(ctx, Options{Depth: 2})
	if err != nil || out != Cold {
		t.Fatalf("first solve: outcome %v, err %v", out, err)
	}
	cold2 := solver.Enumerate(ctx, coldProblem(t, 2))
	if !reflect.DeepEqual(keys(res2.Solutions.Traces()), keys(cold2.Solutions.Traces())) {
		t.Fatalf("depth-2 solutions %v, want %v", keys(res2.Solutions.Traces()), keys(cold2.Solutions.Traces()))
	}

	res4, out, err := s.Solve(ctx, Options{Depth: 4})
	if err != nil || out != Resumed {
		t.Fatalf("deepen: outcome %v, err %v", out, err)
	}
	cold4 := solver.Enumerate(ctx, coldProblem(t, 4))
	if !reflect.DeepEqual(keys(res4.Solutions.Traces()), keys(cold4.Solutions.Traces())) {
		t.Fatalf("depth-4 solutions %v, want %v", keys(res4.Solutions.Traces()), keys(cold4.Solutions.Traces()))
	}
	if res4.Nodes != cold4.Nodes {
		t.Fatalf("deepened session classified %d nodes, cold %d", res4.Nodes, cold4.Nodes)
	}

	var replayed []string
	resR, out, err := s.Solve(ctx, Options{Depth: 4, OnSolution: func(tr trace.Trace) {
		replayed = append(replayed, tr.String())
	}})
	if err != nil || out != Replayed {
		t.Fatalf("replay: outcome %v, err %v", out, err)
	}
	if !reflect.DeepEqual(keys(resR.Solutions.Traces()), keys(res4.Solutions.Traces())) {
		t.Fatal("replay returned a different result")
	}
	if !reflect.DeepEqual(replayed, keys(res4.Solutions.Traces())) {
		t.Fatalf("replay streamed %v, want %v", replayed, keys(res4.Solutions.Traces()))
	}

	if _, _, err := s.Solve(ctx, Options{Depth: 3}); err == nil {
		t.Fatal("shrinking the depth should fail")
	}
	if solves, resumes, replays := counts(s); solves != 3 || resumes != 1 || replays != 1 {
		t.Fatalf("counts (%d,%d,%d), want (3,1,1)", solves, resumes, replays)
	}
	if s.Depth() != 4 || s.Nodes() != cold4.Nodes || s.FrontierSize() != cold4.Stats.Frontier {
		t.Fatalf("accessors: depth %d nodes %d frontier %d", s.Depth(), s.Nodes(), s.FrontierSize())
	}
}

func counts(s *Session) (int, int, int) { return s.Counts() }

func coldProblem(t *testing.T, depth int) solver.Problem {
	t.Helper()
	prog, err := eqlang.CompileSource(dfmSrc)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Problem()
	p.MaxDepth = depth
	return p
}

// TestSessionStream checks that a cold leg plus a resumed leg stream the
// exact canonical solution order of a full solve.
func TestSessionStream(t *testing.T) {
	ctx := context.Background()
	s := dfmSession(t)
	var stream []string
	emit := func(tr trace.Trace) { stream = append(stream, tr.String()) }

	if _, _, err := s.Solve(ctx, Options{Depth: 2, OnSolution: emit}); err != nil {
		t.Fatal(err)
	}
	coldLen := len(stream)
	res, _, err := s.Solve(ctx, Options{Depth: 4, OnSolution: emit})
	if err != nil {
		t.Fatal(err)
	}
	// The resumed leg re-emits the stored prefix, then the new solutions.
	want := append(stream[:coldLen:coldLen], keys(res.Solutions.Traces())...)
	if !reflect.DeepEqual(stream, want) {
		t.Fatalf("stream %v, want %v", stream, want)
	}
}

// TestSessionBudgetResume truncates the first leg on a node budget and
// finishes with a second, checking the end state matches a cold solve.
func TestSessionBudgetResume(t *testing.T) {
	ctx := context.Background()
	s := dfmSession(t)
	res, out, err := s.Solve(ctx, Options{Depth: 4, MaxNodes: 5})
	if err != nil || out != Cold {
		t.Fatalf("outcome %v, err %v", out, err)
	}
	if !res.Truncated {
		t.Fatal("budget of 5 nodes did not truncate")
	}
	if _, err := s.Delta(2, "b"); err == nil {
		t.Fatal("delta on a truncated session should fail")
	}
	res, out, err = s.Solve(ctx, Options{Depth: 4})
	if err != nil || out != Resumed {
		t.Fatalf("budget resume: outcome %v, err %v", out, err)
	}
	cold := solver.Enumerate(ctx, coldProblem(t, 4))
	if res.Truncated || res.Nodes != cold.Nodes || !reflect.DeepEqual(keys(res.Solutions.Traces()), keys(cold.Solutions.Traces())) {
		t.Fatalf("resumed end state (%v,%d) differs from cold (%d)", res.Truncated, res.Nodes, cold.Nodes)
	}
}

func TestSessionDelta(t *testing.T) {
	ctx := context.Background()
	s := dfmSession(t)
	if _, err := s.Delta(2, "b"); err == nil {
		t.Fatal("delta before the first solve should fail")
	}
	if _, _, err := s.Solve(ctx, Options{Depth: 4}); err != nil {
		t.Fatal(err)
	}

	d, err := s.Delta(2, "b")
	if err != nil {
		t.Fatal(err)
	}
	if d.Channel != "b" || len(d.Solutions) == 0 {
		t.Fatalf("delta: %+v", d)
	}
	for _, tr := range d.Solutions {
		for _, e := range tr.Events() {
			if e.Ch == "b" {
				t.Fatalf("projected solution %s still mentions b", tr)
			}
		}
	}
	// Canonical order: nondecreasing length, lexicographic within.
	for i := 1; i < len(d.Solutions); i++ {
		a, b := d.Solutions[i-1], d.Solutions[i]
		if a.Len() > b.Len() || (a.Len() == b.Len() && a.String() >= b.String()) {
			t.Fatalf("projected solutions out of canonical order at %d: %s, %s", i, a, b)
		}
	}

	rep, err := s.DeltaCheck(ctx, d)
	if err != nil {
		t.Fatalf("delta check: %v (report %+v)", err, rep)
	}
	if rep.Matched != len(d.Solutions) {
		t.Fatalf("delta check matched %d of %d projected solutions", rep.Matched, len(d.Solutions))
	}
	if rep.FreshNodes == 0 {
		t.Fatal("delta check reports an empty fresh solve")
	}
	// A session deepening between a delta and its check does not
	// invalidate the delta: the check solves to the depth the projection
	// was taken at.
	shallow := dfmSession(t)
	if _, _, err := shallow.Solve(ctx, Options{Depth: 1}); err != nil {
		t.Fatal(err)
	}
	d1, err := shallow.Delta(2, "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := shallow.Solve(ctx, Options{Depth: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := shallow.DeltaCheck(ctx, d1); err != nil {
		t.Fatalf("delta check after deepening: %v", err)
	}
	// A fresh solve cut short is no verdict either way.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.DeltaCheck(canceled, d); !errors.Is(err, ErrTruncatedReference) {
		t.Fatalf("delta check under a canceled context: err = %v, want ErrTruncatedReference", err)
	}

	// A non-defining index must be rejected by the elimination conditions.
	if _, err := s.Delta(0, "d"); err == nil {
		t.Fatal("eliminating via a non-defining description should fail")
	}
}
