package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"smoothproc/internal/specvet"
)

// jobsFor returns the scheduler's retained jobs for a spec hash, in
// submission order.
func jobsFor(srv *Server, hash string) []*Job {
	srv.sched.mu.Lock()
	defer srv.sched.mu.Unlock()
	var out []*Job
	for _, id := range srv.sched.order {
		if j := srv.sched.jobs[id]; j != nil && j.specHash == hash {
			out = append(out, j)
		}
	}
	return out
}

// spanMs returns the named span of a job view, failing when it is absent.
func spanMs(t *testing.T, v JobView, name string) float64 {
	t.Helper()
	for _, sp := range v.Spans {
		if sp.Name == name {
			return sp.Ms
		}
	}
	t.Fatalf("job %s has no %s span: %+v", v.ID, name, v.Spans)
	return 0
}

// holdWorker occupies one scheduler worker until release is called, or
// the test ends.
func holdWorker(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	started, gate := make(chan struct{}), make(chan struct{})
	if _, err := srv.sched.Submit(Submission{SpecHash: "gate", Run: func(context.Context) (*SolveResult, error) {
		close(started)
		<-gate
		return okResult(), nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	return release
}

// TestAdmitSpanStartsAtHandlerEntry: every endpoint that schedules a
// search starts its admit clock when the handler is entered, so the
// span covers decoding the body and compiling and vetting the spec. Each
// leg sends a never-seen variant of a source whose vet alone takes over
// a millisecond, and its admit span must reach a tenth of the test's own
// vet of that variant — slack for load swings between the two, while a
// clock started after the vet reads a few microseconds.
func TestAdmitSpanStartsAtHandlerEntry(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	base, err := os.ReadFile("../../specs/generated/mailbox-0.eq")
	if err != nil {
		t.Fatal(err)
	}
	check := func(leg, src string, job JobView) {
		t.Helper()
		vet := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			specvet.Vet(src)
			vet = min(vet, time.Since(start))
		}
		if got := spanMs(t, job, "admit"); got < ms(vet)/10 {
			t.Errorf("%s: admit span %.3f ms, but vetting the source alone takes %.3f ms", leg, got, ms(vet))
		}
	}

	src := string(base) + "# solve leg\n"
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: src, Depth: 3, Wait: true, NoCache: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}
	check("solve", src, decode[JobView](t, body))

	src = string(base) + "# stream leg\n"
	js, err := json.Marshal(SolveRequest{Source: src, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	sresp, err := http.Post(ts.URL+"/v1/solve/stream", "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", sresp.StatusCode)
	}
	br := bufio.NewReader(sresp.Body)
	for {
		e := readSSE(t, br)
		if e.name == "done" {
			check("stream", src, decode[JobView](t, e.data))
			break
		}
	}

	src = string(base) + "# session leg\n"
	resp, body = postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Source: src, Depth: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: status %d: %s", resp.StatusCode, body)
	}
	jobs := jobsFor(srv, decode[SessionView](t, body).SpecHash)
	if len(jobs) != 1 {
		t.Fatalf("session create ran %d jobs, want 1", len(jobs))
	}
	check("session", src, srv.sched.View(jobs[0]))
}

// TestFinishedJobDropsItsRun: a finished job stays in the history for
// its view, but not its run closure, which holds the solve call and, for
// a streamed solve, every solution trace the stream buffered.
func TestFinishedJobDropsItsRun(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	src := fig4 + "# solve\n"
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: src, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}
	solved := decode[JobView](t, body).SpecHash

	src = fig4 + "# stream\n"
	js, err := json.Marshal(SolveRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	sresp, err := http.Post(ts.URL+"/v1/solve/stream", "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var streamed string
	for br := bufio.NewReader(sresp.Body); streamed == ""; {
		if e := readSSE(t, br); e.name == "done" {
			streamed = decode[JobView](t, e.data).SpecHash
		}
	}
	for _, hash := range []string{solved, streamed} {
		jobs := jobsFor(srv, hash)
		if len(jobs) != 1 {
			t.Fatalf("spec %s ran %d jobs, want 1", hash, len(jobs))
		}
		<-jobs[0].Done()
		srv.sched.mu.Lock()
		state, run := jobs[0].state, jobs[0].run
		srv.sched.mu.Unlock()
		if state != JobDone || run != nil {
			t.Errorf("spec %s: finished job in state %s still holds its run closure: %v", hash, state, run != nil)
		}
	}
}

// TestSessionElapsedIsTheSearchAlone: a session leg's result.elapsed_ms
// is the search's wall clock, measured on the worker, so it fits inside
// the job's run span. The only worker is held while the leg queues: a
// clock started before Submit would read the whole hold.
func TestSessionElapsedIsTheSearchAlone(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	release := holdWorker(t, srv)
	const hold = 100 * time.Millisecond
	time.AfterFunc(hold, release)

	resp, body := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Source: dfm, Depth: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: status %d: %s", resp.StatusCode, body)
	}
	sv := decode[SessionView](t, body)
	jobs := jobsFor(srv, sv.SpecHash)
	if len(jobs) != 1 || sv.Result == nil {
		t.Fatalf("session create: %d jobs, result %v", len(jobs), sv.Result)
	}
	job := srv.sched.View(jobs[0])
	if q := spanMs(t, job, "queue"); q < ms(hold)/2 {
		t.Fatalf("leg queued %.3f ms behind a %v hold; the hold did not bite", q, hold)
	}
	if run := spanMs(t, job, "run"); sv.Result.ElapsedMs > run {
		t.Errorf("elapsed_ms %.3f exceeds the job's run span %.3f ms: the leg's clock counts time off the worker",
			sv.Result.ElapsedMs, run)
	}
}

// TestSessionCountersCountDisconnectedLegs: /metrics sessions/resumed
// and sessions/replayed count every leg the session absorbs, including
// legs whose client hung up while they were queued — as the session's
// own resumes and replays do.
func TestSessionCountersCountDisconnectedLegs(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Source: dfm, Depth: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: status %d: %s", resp.StatusCode, body)
	}
	hash := decode[SessionView](t, body).SpecHash

	release := holdWorker(t, srv)
	// Queue a deepening leg and then a replay of it, hanging up on each
	// once it is queued.
	for i, depth := range []int{4, 4} {
		js, err := json.Marshal(SessionRequest{Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sessions/"+hash+"/resume", bytes.NewReader(js))
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}()
		deadline := time.Now().Add(5 * time.Second)
		for len(jobsFor(srv, hash)) < i+2 {
			if time.Now().After(deadline) {
				t.Fatalf("leg %d never queued", i)
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		if err := <-errc; err == nil {
			t.Fatalf("leg %d: the request finished while the worker was held", i)
		}
	}
	// Let the handlers see the hang-ups before the legs run.
	time.Sleep(50 * time.Millisecond)
	release()
	for _, j := range jobsFor(srv, hash) {
		<-j.Done()
	}

	var sv SessionView
	if code := getJSON(t, ts.URL+"/v1/sessions/"+hash, &sv); code != http.StatusOK {
		t.Fatalf("session get: status %d", code)
	}
	if sv.Resumes != 1 || sv.Replays != 1 {
		t.Fatalf("session counted %d resumes and %d replays, want 1 and 1", sv.Resumes, sv.Replays)
	}
	if got := metricValue(t, ts.URL, "sessions", "resumed"); got != 1 {
		t.Errorf("/metrics sessions/resumed = %d, want 1", got)
	}
	if got := metricValue(t, ts.URL, "sessions", "replayed"); got != 1 {
		t.Errorf("/metrics sessions/replayed = %d, want 1", got)
	}
}
