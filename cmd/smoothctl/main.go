// Command smoothctl is the client for smoothd. It uploads eqlang specs,
// schedules solve jobs, polls their status, streams solutions, drives
// resumable solve sessions, and inspects the durable store.
//
// Usage:
//
//	smoothctl upload [-addr URL] file.eq
//	smoothctl solve  [-addr URL] [-hash H | file.eq] [-depth N] [-timeout-ms N] [-async] [-no-cache] [-stream] [-resume] [-tenant T] [-trace ID]
//	smoothctl status [-addr URL] job-id
//	smoothctl jobs   [-addr URL] [-trace] job-id...
//	smoothctl delta  [-addr URL] (-hash H | file.eq) -channel NAME [-check]
//	smoothctl store  (stats | ls -kind KIND | gc -max-bytes N) [-addr URL]
//
// solve -stream reads the /v1/solve/stream server-sent event stream and
// prints each smooth solution as the search classifies it. solve -resume
// runs the search in a solve session keyed by the spec hash: repeating
// the command at a larger -depth deepens the previous search from its
// retained frontier instead of starting cold. delta answers a Theorem
// 5/6 channel elimination from the session's retained solutions.
//
// The address may be a bare host:port or a full http:// URL.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"smoothproc/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "upload":
		return cmdUpload(rest, stdin, stdout, stderr)
	case "solve":
		return cmdSolve(rest, stdin, stdout, stderr)
	case "status":
		return cmdStatus(rest, stdout, stderr)
	case "jobs":
		return cmdJobs(rest, stdout, stderr)
	case "delta":
		return cmdDelta(rest, stdin, stdout, stderr)
	case "store":
		return cmdStore(rest, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "smoothctl: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: smoothctl <command> [flags]

commands:
  upload  compile a spec on the server and print its hash
  solve   run the smooth-solution search for a spec
  status  show a job by id
  jobs    show jobs by id; -trace adds tenant, trace id and spans
  delta   answer a channel elimination from a solve session
  store   inspect the durable store: stats, ls -kind, gc -max-bytes`)
}

// client is a thin JSON-over-HTTP wrapper around one smoothd. When
// tenant or trace are set, every request carries the matching
// X-Smoothproc header, so the server bills the work to that tenant and
// threads the trace id through its scheduler spans.
type client struct {
	base   string
	http   *http.Client
	tenant string
	trace  string
}

func newClient(addr string) *client {
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		addr = "http://" + addr
	}
	return &client{base: strings.TrimRight(addr, "/"), http: &http.Client{}}
}

func (c *client) setHeaders(req *http.Request) {
	if c.tenant != "" {
		req.Header.Set("X-Smoothproc-Tenant", c.tenant)
	}
	if c.trace != "" {
		req.Header.Set("X-Smoothproc-Trace", c.trace)
	}
}

// call posts body (or GETs when body is nil) and decodes the response
// into out. Non-2xx responses come back as errors carrying the server's
// structured message.
func (c *client) call(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		js, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(js)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.setHeaders(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 400 {
		var eb service.ErrorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg := eb.Error
			if eb.Line > 0 {
				msg = fmt.Sprintf("%s\n  line %d: %s", msg, eb.Line, eb.Snippet)
			}
			return resp.StatusCode, fmt.Errorf("%s", msg)
		}
		return resp.StatusCode, fmt.Errorf("server returned %s", resp.Status)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// stream posts body and hands back the raw response body for SSE
// reading; non-2xx responses are turned into errors like call's.
func (c *client) stream(path string, body any) (io.ReadCloser, error) {
	js, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(js))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.setHeaders(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		var eb service.ErrorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			return nil, fmt.Errorf("%s", eb.Error)
		}
		return nil, fmt.Errorf("server returned %s", resp.Status)
	}
	return resp.Body, nil
}

// readEvents parses a server-sent event stream, calling emit once per
// event, until the stream closes.
func readEvents(r io.Reader, emit func(event string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && event != "":
			if err := emit(event, data); err != nil {
				return err
			}
			event, data = "", nil
		}
	}
	return sc.Err()
}

func readSpec(path string, stdin io.Reader) (string, error) {
	if path == "-" {
		src, err := io.ReadAll(stdin)
		return string(src), err
	}
	src, err := os.ReadFile(path)
	return string(src), err
}

func cmdUpload(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := newFlagSet("upload", stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "smoothd address")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: smoothctl upload [-addr URL] file.eq  (use - for stdin)")
		return 2
	}
	src, err := readSpec(fs.Arg(0), stdin)
	if err != nil {
		fmt.Fprintf(stderr, "smoothctl: %v\n", err)
		return 1
	}
	var info service.SpecInfo
	if _, err := newClient(*addr).call("POST", "/v1/specs", service.SpecRequest{Source: src}, &info); err != nil {
		fmt.Fprintf(stderr, "smoothctl: upload: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "hash: %s\n", info.Hash)
	fmt.Fprintf(stdout, "depth: %d\n", info.Depth)
	fmt.Fprintf(stdout, "channels: %s\n", strings.Join(info.Channels, " "))
	for _, d := range info.Descriptions {
		fmt.Fprintf(stdout, "desc: %s\n", d)
	}
	if info.Cached {
		fmt.Fprintln(stdout, "(already compiled; served from spec cache)")
	}
	return 0
}

func cmdSolve(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := newFlagSet("solve", stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "smoothd address")
	hash := fs.String("hash", "", "solve a previously uploaded spec by hash")
	depth := fs.Int("depth", 0, "override the spec's probe depth")
	maxNodes := fs.Int("max-nodes", 0, "bound on tree nodes explored")
	timeoutMs := fs.Int("timeout-ms", 0, "per-job deadline in milliseconds")
	async := fs.Bool("async", false, "submit without waiting; print the job id to poll")
	noCache := fs.Bool("no-cache", false, "skip the server's result cache")
	stream := fs.Bool("stream", false, "stream solutions as the search finds them (SSE)")
	resume := fs.Bool("resume", false, "run in a resumable session; repeating at a larger -depth deepens the previous search")
	tenant := fs.String("tenant", "", "tenant to bill the work to (X-Smoothproc-Tenant)")
	trace := fs.String("trace", "", "trace id to thread through the scheduler (X-Smoothproc-Trace)")
	if fs.Parse(args) != nil {
		return 2
	}
	if *stream && *resume {
		fmt.Fprintln(stderr, "smoothctl: -stream and -resume are separate modes; pick one")
		return 2
	}

	req := service.SolveRequest{
		SpecHash:  *hash,
		Depth:     *depth,
		MaxNodes:  *maxNodes,
		TimeoutMs: *timeoutMs,
		Wait:      !*async,
		NoCache:   *noCache,
	}
	switch {
	case *hash == "" && fs.NArg() == 1:
		src, err := readSpec(fs.Arg(0), stdin)
		if err != nil {
			fmt.Fprintf(stderr, "smoothctl: %v\n", err)
			return 1
		}
		req.Source = src
	case *hash != "" && fs.NArg() == 0:
	default:
		fmt.Fprintln(stderr, "usage: smoothctl solve [-addr URL] (-hash H | file.eq) [flags]")
		return 2
	}
	c := newClient(*addr)
	c.tenant, c.trace = *tenant, *trace
	if *stream {
		return solveStream(c, req, stdout, stderr)
	}
	if *resume {
		return solveResume(c, req, stdout, stderr)
	}

	var job service.JobView
	if _, err := c.call("POST", "/v1/solve", req, &job); err != nil {
		fmt.Fprintf(stderr, "smoothctl: solve: %v\n", err)
		return 1
	}
	printJob(stdout, job)
	if job.State == service.JobFailed {
		return 1
	}
	return 0
}

// solveStream runs one search over /v1/solve/stream, printing each
// smooth solution the moment the server emits it.
func solveStream(c *client, req service.SolveRequest, stdout, stderr io.Writer) int {
	body, err := c.stream("/v1/solve/stream", req)
	if err != nil {
		fmt.Fprintf(stderr, "smoothctl: solve: %v\n", err)
		return 1
	}
	defer body.Close()

	count := 0
	done := false
	err = readEvents(body, func(event string, data []byte) error {
		switch event {
		case "job":
			var j service.StreamJob
			if err := json.Unmarshal(data, &j); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "job: %s\n", j.ID)
		case "solution":
			var sol service.StreamSolution
			if err := json.Unmarshal(data, &sol); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "smooth solution: %s\n", sol.Trace)
			count++
		case "done":
			var job service.JobView
			if err := json.Unmarshal(data, &job); err != nil {
				return err
			}
			done = true
			fmt.Fprintf(stdout, "state: %s\n", job.State)
			if job.Error != "" {
				fmt.Fprintf(stdout, "error: %s\n", job.Error)
			}
			if r := job.Result; r != nil {
				fmt.Fprintf(stdout, "solutions: %d  frontier: %d  dead: %d  nodes: %d\n",
					len(r.Solutions), r.Frontier, r.DeadLeaves, r.Nodes)
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "smoothctl: stream: %v\n", err)
		return 1
	}
	if !done {
		fmt.Fprintf(stderr, "smoothctl: stream ended after %d solutions without a done event\n", count)
		return 1
	}
	return 0
}

// solveResume runs one search as a session leg: the server resumes the
// spec's retained frontier when the bounds grow and replays the stored
// result when they do not.
func solveResume(c *client, req service.SolveRequest, stdout, stderr io.Writer) int {
	sreq := service.SessionRequest{
		SpecHash:  req.SpecHash,
		Source:    req.Source,
		Depth:     req.Depth,
		MaxNodes:  req.MaxNodes,
		TimeoutMs: req.TimeoutMs,
	}
	var sv service.SessionView
	if _, err := c.call("POST", "/v1/sessions", sreq, &sv); err != nil {
		fmt.Fprintf(stderr, "smoothctl: solve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "session: %s\n", sv.SpecHash)
	fmt.Fprintf(stdout, "outcome: %s  depth: %d  nodes: %d  frontier: %d\n",
		sv.Outcome, sv.Depth, sv.Nodes, sv.Frontier)
	if r := sv.Result; r != nil {
		for _, sol := range r.Solutions {
			fmt.Fprintf(stdout, "smooth solution: %s\n", sol)
		}
		fmt.Fprintf(stdout, "solutions: %d  frontier: %d  dead: %d  nodes: %d\n",
			len(r.Solutions), r.Frontier, r.DeadLeaves, r.Nodes)
	}
	return 0
}

func cmdDelta(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := newFlagSet("delta", stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "smoothd address")
	hash := fs.String("hash", "", "session spec hash (or pass the spec file to derive it)")
	channel := fs.String("channel", "", "channel to eliminate (must carry an eliminable verdict)")
	check := fs.Bool("check", false, "also run the Theorem 5/6 differential check against a fresh solve")
	if fs.Parse(args) != nil {
		return 2
	}
	if *channel == "" || (*hash == "" && fs.NArg() != 1) || (*hash != "" && fs.NArg() != 0) {
		fmt.Fprintln(stderr, "usage: smoothctl delta [-addr URL] (-hash H | file.eq) -channel NAME [-check]")
		return 2
	}
	c := newClient(*addr)
	h := *hash
	if h == "" {
		src, err := readSpec(fs.Arg(0), stdin)
		if err != nil {
			fmt.Fprintf(stderr, "smoothctl: %v\n", err)
			return 1
		}
		var info service.SpecInfo
		if _, err := c.call("POST", "/v1/specs", service.SpecRequest{Source: src}, &info); err != nil {
			fmt.Fprintf(stderr, "smoothctl: delta upload: %v\n", err)
			return 1
		}
		h = info.Hash
	}
	var dv service.DeltaView
	req := service.DeltaRequest{Channel: *channel, Check: *check}
	if _, err := c.call("POST", "/v1/sessions/"+h+"/delta", req, &dv); err != nil {
		fmt.Fprintf(stderr, "smoothctl: delta: %v\n(a delta needs a solved session: run smoothctl solve -resume first)\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "eliminated: %s via %s\n", dv.Channel, dv.Desc)
	for _, d := range dv.System {
		fmt.Fprintf(stdout, "desc: %s\n", d)
	}
	for _, sol := range dv.Solutions {
		fmt.Fprintf(stdout, "smooth solution: %s\n", sol)
	}
	fmt.Fprintf(stdout, "solutions: %d  projected from %d searched nodes\n", len(dv.Solutions), dv.FromNodes)
	if dv.Check != nil {
		fmt.Fprintf(stdout, "check: fresh solve %d nodes, %d matched, %d beyond horizon\n",
			dv.Check.FreshNodes, dv.Check.Matched, dv.Check.BeyondHorizon)
	}
	return 0
}

func cmdStatus(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("status", stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "smoothd address")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: smoothctl status [-addr URL] job-id")
		return 2
	}
	var job service.JobView
	if _, err := newClient(*addr).call("GET", "/v1/jobs/"+fs.Arg(0), nil, &job); err != nil {
		fmt.Fprintf(stderr, "smoothctl: status: %v\n", err)
		return 1
	}
	printJob(stdout, job)
	return 0
}

// cmdJobs shows one or more jobs; -trace adds the scheduling metadata a
// plain status hides — owning tenant, trace id, and per-stage spans.
func cmdJobs(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("jobs", stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "smoothd address")
	trace := fs.Bool("trace", false, "also print tenant, trace id and admit/queue/run spans")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: smoothctl jobs [-addr URL] [-trace] job-id...")
		return 2
	}
	c := newClient(*addr)
	exit := 0
	for _, id := range fs.Args() {
		var job service.JobView
		if _, err := c.call("GET", "/v1/jobs/"+id, nil, &job); err != nil {
			fmt.Fprintf(stderr, "smoothctl: jobs: %s: %v\n", id, err)
			exit = 1
			continue
		}
		printJob(stdout, job)
		if *trace {
			fmt.Fprintf(stdout, "tenant: %s\n", job.Tenant)
			fmt.Fprintf(stdout, "trace: %s\n", job.TraceID)
			for _, sp := range job.Spans {
				fmt.Fprintf(stdout, "span: %-5s %.2fms\n", sp.Name, sp.Ms)
			}
		}
	}
	return exit
}

// cmdStore drives the /v1/store ops surface: aggregate stats, per-kind
// listings, and size-bounded garbage collection.
func cmdStore(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "usage: smoothctl store (stats | ls -kind KIND | gc -max-bytes N) [-addr URL]")
		return 2
	}
	sub, rest := args[0], args[1:]
	fs := newFlagSet("store "+sub, stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "smoothd address")
	kind := fs.String("kind", "", "blob kind to list: spec, result or session")
	maxBytes := fs.Int64("max-bytes", 0, "gc target: delete oldest blobs until at most this many bytes remain")
	if fs.Parse(rest) != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: smoothctl store (stats | ls -kind KIND | gc -max-bytes N) [-addr URL]")
		return 2
	}
	c := newClient(*addr)
	switch sub {
	case "stats":
		var sv service.StoreView
		if _, err := c.call("GET", "/v1/store", nil, &sv); err != nil {
			fmt.Fprintf(stderr, "smoothctl: store stats: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "backend: %s", sv.Backend)
		if sv.Dir != "" {
			fmt.Fprintf(stdout, " (%s)", sv.Dir)
		}
		fmt.Fprintln(stdout)
		for _, kv := range sv.Kinds {
			fmt.Fprintf(stdout, "%-10s %4d objects  %8d bytes  puts %d  hits %d  misses %d\n",
				kv.Kind, kv.Objects, kv.Bytes, kv.Stats.Puts, kv.Stats.Hits, kv.Stats.Misses)
		}
		fmt.Fprintf(stdout, "total: %d objects, %d bytes\n", sv.TotalObjects, sv.TotalBytes)
		return 0
	case "ls":
		if *kind == "" {
			fmt.Fprintln(stderr, "usage: smoothctl store ls -kind KIND [-addr URL]")
			return 2
		}
		var lv service.StoreListView
		if _, err := c.call("GET", "/v1/store/"+*kind, nil, &lv); err != nil {
			fmt.Fprintf(stderr, "smoothctl: store ls: %v\n", err)
			return 1
		}
		for _, obj := range lv.Objects {
			fmt.Fprintf(stdout, "%s  %8d bytes  %s\n", obj.Key, obj.Size, obj.ModTime.Format(time.RFC3339))
		}
		fmt.Fprintf(stdout, "%d %s blobs\n", len(lv.Objects), lv.Kind)
		return 0
	case "gc":
		var gv service.StoreGCView
		if _, err := c.call("POST", "/v1/store/gc", service.StoreGCRequest{MaxBytes: *maxBytes}, &gv); err != nil {
			fmt.Fprintf(stderr, "smoothctl: store gc: %v\n", err)
			return 1
		}
		for _, obj := range gv.Deleted {
			fmt.Fprintf(stdout, "deleted: %s %s  %d bytes\n", obj.Kind, obj.Key, obj.Size)
		}
		fmt.Fprintf(stdout, "gc: deleted %d blobs (%d bytes), %d bytes remain\n",
			len(gv.Deleted), gv.DeletedBytes, gv.RemainingBytes)
		return 0
	default:
		fmt.Fprintf(stderr, "smoothctl: unknown store subcommand %q\n", sub)
		return 2
	}
}

func printJob(w io.Writer, job service.JobView) {
	if job.ID != "" {
		fmt.Fprintf(w, "job: %s\n", job.ID)
	}
	fmt.Fprintf(w, "state: %s\n", job.State)
	if job.Error != "" {
		fmt.Fprintf(w, "error: %s\n", job.Error)
	}
	r := job.Result
	if r == nil {
		return
	}
	for _, sol := range r.Solutions {
		fmt.Fprintf(w, "smooth solution: %s\n", sol)
	}
	fmt.Fprintf(w, "solutions: %d  frontier: %d  dead: %d  nodes: %d\n",
		len(r.Solutions), r.Frontier, r.DeadLeaves, r.Nodes)
	switch {
	case r.Cached:
		fmt.Fprintln(w, "(served from result cache; no search performed)")
	case r.Canceled:
		fmt.Fprintln(w, "(search cancelled by deadline; counts are a sound partial answer)")
	case r.Truncated:
		fmt.Fprintln(w, "(search truncated by node budget; counts are a sound partial answer)")
	default:
		fmt.Fprintf(w, "searched in %.1fms\n", r.ElapsedMs)
	}
}

func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("smoothctl "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}
