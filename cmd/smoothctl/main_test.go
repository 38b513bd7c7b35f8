package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"smoothproc/internal/service"
)

const fig4 = `alphabet b = {1}
alphabet c = ints 0 .. 2
depth 4
desc even(c) <- [0, 2]
desc odd(c)  <- b
desc b <- fBA(c)
`

const fig4Solution = "⟨(c,0)(c,2)(b,1)(c,1)⟩"

// testDaemon stands up a real service behind httptest and returns its
// address in the bare host:port form smoothctl defaults expect.
func testDaemon(t *testing.T) string {
	t.Helper()
	srv, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return strings.TrimPrefix(ts.URL, "http://")
}

func writeSpec(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.eq")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCtl(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, strings.NewReader(stdin), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUploadThenSolveByHash(t *testing.T) {
	addr := testDaemon(t)
	spec := writeSpec(t, fig4)

	code, out, errOut := runCtl(t, "", "upload", "-addr", addr, spec)
	if code != 0 {
		t.Fatalf("upload exit %d: %s", code, errOut)
	}
	var hash string
	for _, line := range strings.Split(out, "\n") {
		if h, ok := strings.CutPrefix(line, "hash: "); ok {
			hash = h
		}
	}
	if hash == "" {
		t.Fatalf("upload printed no hash: %q", out)
	}
	if !strings.Contains(out, "depth: 4") {
		t.Errorf("upload output missing depth: %q", out)
	}

	code, out, errOut = runCtl(t, "", "solve", "-addr", addr, "-hash", hash)
	if code != 0 {
		t.Fatalf("solve exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "smooth solution: "+fig4Solution) {
		t.Errorf("solve output missing the Brock–Ackermann solution: %q", out)
	}
	if !strings.Contains(out, "state: done") {
		t.Errorf("solve output missing state: %q", out)
	}
}

func TestSolveFromStdinAndCachedRepeat(t *testing.T) {
	addr := testDaemon(t)
	code, out, errOut := runCtl(t, fig4, "solve", "-addr", addr, "-")
	if code != 0 {
		t.Fatalf("stdin solve exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "smooth solution: "+fig4Solution) {
		t.Errorf("stdin solve output: %q", out)
	}
	// The repeat lands in the result cache and says so.
	code, out, _ = runCtl(t, fig4, "solve", "-addr", addr, "-")
	if code != 0 || !strings.Contains(out, "served from result cache") {
		t.Errorf("repeat solve (exit %d) output: %q", code, out)
	}
}

func TestSolveAsyncThenStatus(t *testing.T) {
	addr := testDaemon(t)
	spec := writeSpec(t, fig4)
	code, out, errOut := runCtl(t, "", "solve", "-addr", addr, "-async", spec)
	if code != 0 {
		t.Fatalf("async solve exit %d: %s", code, errOut)
	}
	var id string
	for _, line := range strings.Split(out, "\n") {
		if j, ok := strings.CutPrefix(line, "job: "); ok {
			id = j
		}
	}
	if id == "" {
		t.Fatalf("async solve printed no job id: %q", out)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, out, errOut = runCtl(t, "", "status", "-addr", addr, id)
		if code != 0 {
			t.Fatalf("status exit %d: %s", code, errOut)
		}
		if strings.Contains(out, "state: done") {
			if !strings.Contains(out, "smooth solution: "+fig4Solution) {
				t.Fatalf("done status missing solution: %q", out)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished; last status: %q", out)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSolveStream(t *testing.T) {
	addr := testDaemon(t)
	spec := writeSpec(t, fig4)
	code, out, errOut := runCtl(t, "", "solve", "-addr", addr, "-stream", spec)
	if code != 0 {
		t.Fatalf("stream solve exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "job: job-") {
		t.Errorf("stream output missing job event: %q", out)
	}
	if !strings.Contains(out, "smooth solution: "+fig4Solution) {
		t.Errorf("stream output missing the solution: %q", out)
	}
	if !strings.Contains(out, "state: done") || !strings.Contains(out, "solutions: 1") {
		t.Errorf("stream output missing done summary: %q", out)
	}
}

func TestSolveResumeAndDelta(t *testing.T) {
	addr := testDaemon(t)
	// The discriminated fair merge: feeders b and c are eliminable.
	dfm := `alphabet b = {0}
alphabet c = {1}
alphabet d = {0, 1}
depth 4
desc even(d) <- b
desc odd(d)  <- c
desc b <- [0]
desc c <- [1]
`
	spec := writeSpec(t, dfm)

	code, out, errOut := runCtl(t, "", "solve", "-addr", addr, "-resume", "-depth", "2", spec)
	if code != 0 {
		t.Fatalf("session solve exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "outcome: cold") || !strings.Contains(out, "depth: 2") {
		t.Errorf("first session leg: %q", out)
	}

	// Repeating at a larger depth deepens the same session.
	code, out, errOut = runCtl(t, "", "solve", "-addr", addr, "-resume", "-depth", "4", spec)
	if code != 0 {
		t.Fatalf("resume exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "outcome: resumed") || !strings.Contains(out, "depth: 4") {
		t.Errorf("resumed leg: %q", out)
	}
	if !strings.Contains(out, "smooth solution: ") {
		t.Errorf("resumed leg printed no solutions: %q", out)
	}

	// Theorem 5 delta: eliminate the b feeder from the retained state.
	code, out, errOut = runCtl(t, "", "delta", "-addr", addr, "-channel", "b", "-check", spec)
	if code != 0 {
		t.Fatalf("delta exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "eliminated: b via ") || !strings.Contains(out, "projected from ") {
		t.Errorf("delta output: %q", out)
	}
	if strings.Contains(out, "(b,") {
		t.Errorf("projected solutions still mention b: %q", out)
	}
	if !strings.Contains(out, "check: fresh solve ") {
		t.Errorf("delta output missing the differential check: %q", out)
	}

	// The merged output channel d carries no eliminable verdict.
	code, _, errOut = runCtl(t, "", "delta", "-addr", addr, "-channel", "d", spec)
	if code != 1 || !strings.Contains(errOut, "not eliminable") {
		t.Errorf("delta d exit %d (%q), want rejection", code, errOut)
	}

	if code, _, _ := runCtl(t, "", "solve", "-addr", addr, "-stream", "-resume", spec); code != 2 {
		t.Errorf("-stream -resume together exit %d, want 2", code)
	}
	if code, _, _ := runCtl(t, "", "delta", "-addr", addr, spec); code != 2 {
		t.Errorf("delta without -channel exit %d, want 2", code)
	}
}

func TestUploadCompileErrorShowsLine(t *testing.T) {
	addr := testDaemon(t)
	spec := writeSpec(t, "alphabet c = ints 0 .. 2\ndesc broken(c <- [0\n")
	code, _, errOut := runCtl(t, "", "upload", "-addr", addr, spec)
	if code != 1 {
		t.Fatalf("bad spec upload exit = %d, want 1", code)
	}
	if !strings.Contains(errOut, "line 2") {
		t.Errorf("compile error output lacks the line: %q", errOut)
	}
}

// TestConcurrentNoCacheSolves: eight concurrent `solve -no-cache` runs
// through one daemon each search for real, and all print the same
// answer: the Brock–Ackermann solution and the same counts.
func TestConcurrentNoCacheSolves(t *testing.T) {
	addr := testDaemon(t)
	spec := writeSpec(t, fig4)
	type ran struct {
		code     int
		out, err string
	}
	runs := make([]ran, 8)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var stdout, stderr bytes.Buffer
			code := run([]string{"solve", "-addr", addr, "-no-cache", spec}, strings.NewReader(""), &stdout, &stderr)
			runs[i] = ran{code, stdout.String(), stderr.String()}
		}()
	}
	wg.Wait()
	// counts returns the "solutions: … nodes: N" line without its label.
	counts := func(out string) string {
		_, after, _ := strings.Cut(out, "solutions: ")
		c, _, _ := strings.Cut(after, "\n")
		return c
	}
	for i, r := range runs {
		if r.code != 0 {
			t.Fatalf("solve %d exit %d: %s", i, r.code, r.err)
		}
		if !strings.Contains(r.out, "smooth solution: "+fig4Solution) || !strings.Contains(r.out, "searched in") {
			t.Errorf("solve %d did not search its way to the solution: %q", i, r.out)
		}
		if c, c0 := counts(r.out), counts(runs[0].out); c == "" || c != c0 {
			t.Errorf("solve %d counted %q, solve 0 %q", i, c, c0)
		}
	}
}

func TestUsageAndErrors(t *testing.T) {
	if code, _, _ := runCtl(t, ""); code != 2 {
		t.Errorf("no args exit = %d, want 2", code)
	}
	if code, _, errOut := runCtl(t, "", "frobnicate"); code != 2 || !strings.Contains(errOut, "unknown command") {
		t.Errorf("unknown command exit = %d (%q), want 2", code, errOut)
	}
	if code, _, _ := runCtl(t, "", "solve"); code != 2 {
		t.Errorf("solve without spec exit = %d, want 2", code)
	}
	if code, _, errOut := runCtl(t, "", "status", "-addr", "127.0.0.1:1", "job-1"); code != 1 || errOut == "" {
		t.Errorf("unreachable server exit = %d (%q), want 1", code, errOut)
	}
}

func TestJobsTraceAndTenant(t *testing.T) {
	addr := testDaemon(t)
	spec := writeSpec(t, fig4)
	code, out, errOut := runCtl(t, "",
		"solve", "-addr", addr, "-async", "-no-cache", "-tenant", "alice", "-trace", "trace-77", spec)
	if code != 0 {
		t.Fatalf("solve exit %d: %s", code, errOut)
	}
	var id string
	for _, line := range strings.Split(out, "\n") {
		if j, ok := strings.CutPrefix(line, "job: "); ok {
			id = j
		}
	}
	if id == "" {
		t.Fatalf("no job id in %q", out)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, out, errOut = runCtl(t, "", "jobs", "-addr", addr, "-trace", id)
		if code != 0 {
			t.Fatalf("jobs exit %d: %s", code, errOut)
		}
		if strings.Contains(out, "state: done") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %q", out)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(out, "tenant: alice") || !strings.Contains(out, "trace: trace-77") {
		t.Errorf("jobs -trace output missing identity: %q", out)
	}
	for _, span := range []string{"span: admit", "span: queue", "span: run"} {
		if !strings.Contains(out, span) {
			t.Errorf("jobs -trace output missing %q: %q", span, out)
		}
	}
	// Without -trace the extra lines stay hidden.
	code, out, _ = runCtl(t, "", "jobs", "-addr", addr, id)
	if code != 0 || strings.Contains(out, "span: ") {
		t.Errorf("plain jobs (exit %d) leaked spans: %q", code, out)
	}
	if code, _, _ := runCtl(t, "", "jobs", "-addr", addr); code != 2 {
		t.Errorf("jobs without ids exit %d, want 2", code)
	}
}

func TestStoreStatsLsGC(t *testing.T) {
	addr := testDaemon(t)
	spec := writeSpec(t, fig4)
	if code, _, errOut := runCtl(t, "", "solve", "-addr", addr, spec); code != 0 {
		t.Fatalf("solve exit %d: %s", code, errOut)
	}

	code, out, errOut := runCtl(t, "", "store", "stats", "-addr", addr)
	if code != 0 {
		t.Fatalf("store stats exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "backend: memory") {
		t.Errorf("stats missing backend: %q", out)
	}
	for _, kind := range []string{"spec", "result"} {
		if !strings.Contains(out, kind) {
			t.Errorf("stats missing kind %s: %q", kind, out)
		}
	}

	code, out, errOut = runCtl(t, "", "store", "ls", "-addr", addr, "-kind", "spec")
	if code != 0 {
		t.Fatalf("store ls exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "1 spec blobs") {
		t.Errorf("ls summary: %q", out)
	}
	if code, _, _ := runCtl(t, "", "store", "ls", "-addr", addr, "-kind", "bogus"); code != 1 {
		t.Errorf("ls bogus kind exit %d, want 1", code)
	}
	if code, _, _ := runCtl(t, "", "store", "ls", "-addr", addr); code != 2 {
		t.Errorf("ls without -kind exit %d, want 2", code)
	}

	code, out, errOut = runCtl(t, "", "store", "gc", "-addr", addr, "-max-bytes", "0")
	if code != 0 {
		t.Fatalf("store gc exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "0 bytes remain") {
		t.Errorf("gc summary: %q", out)
	}
	code, out, _ = runCtl(t, "", "store", "stats", "-addr", addr)
	if code != 0 || !strings.Contains(out, "total: 0 objects, 0 bytes") {
		t.Errorf("post-gc stats (exit %d): %q", code, out)
	}
	if code, _, _ := runCtl(t, "", "store", "frobnicate", "-addr", addr); code != 2 {
		t.Errorf("unknown store subcommand exit %d, want 2", code)
	}
}
