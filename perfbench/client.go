package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"smoothproc/internal/service"
)

// outcome is what one HTTP request did, as the client saw it.
type outcome struct {
	req     Request
	traceID string
	// start and end are offsets from the run's clock origin.
	start, end time.Duration
	status     int
	bytes      int
	// firstSolution is the offset of the first streamed solution event,
	// zero when none arrived.
	firstSolution time.Duration
	result        *service.SolveResult
	job           *service.JobView
	sessOutcome   string
	uploadHash    string
	err           error
}

func (o *outcome) latency() time.Duration { return o.end - o.start }

// client sends one workload's requests over real HTTP.
type client struct {
	http  *http.Client
	base  string
	clock time.Time
}

// countingReader counts the body bytes the client reads.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// do sends req for spec s and decodes the response. A non-2xx status,
// a transport error or an undecodable body is reported in outcome.err.
func (c *client) do(req Request, s *Spec, traceID string) outcome {
	o := outcome{req: req, traceID: traceID}
	var path string
	var body any
	switch req.Op {
	case "upload":
		path, body = "/v1/specs", service.SpecRequest{Source: s.Source}
	case "solve":
		path = "/v1/solve"
		body = service.SolveRequest{SpecHash: s.Hash, Depth: req.Depth, Workers: req.Workers, NoCache: req.NoCache, Wait: true}
	case "stream":
		path = "/v1/solve/stream"
		body = service.SolveRequest{SpecHash: s.Hash, Depth: req.Depth, Workers: req.Workers, NoCache: req.NoCache}
	case "create":
		path, body = "/v1/sessions", service.SessionRequest{SpecHash: s.Hash, Depth: req.Depth}
	case "resume":
		path, body = "/v1/sessions/"+s.Hash+"/resume", service.SessionRequest{Depth: req.Depth}
	default:
		o.err = fmt.Errorf("unknown op %q", req.Op)
		return o
	}
	js, err := json.Marshal(body)
	if err != nil {
		o.err = err
		return o
	}
	hreq, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(js))
	if err != nil {
		o.err = err
		return o
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Smoothproc-Trace", traceID)

	o.start = time.Since(c.clock)
	resp, err := c.http.Do(hreq)
	if err != nil {
		o.end = time.Since(c.clock)
		o.err = err
		return o
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	cr := &countingReader{r: resp.Body}
	if resp.StatusCode == http.StatusOK && req.Op == "stream" {
		o.err = c.readStream(cr, &o)
	} else {
		o.err = c.decode(cr, &o)
	}
	// Drain what is left so the connection is reused.
	_, _ = io.Copy(io.Discard, cr)
	o.end = time.Since(c.clock)
	o.bytes = cr.n
	if o.err == nil && resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("%s %s: status %d", req.Op, s.Name, resp.StatusCode)
	}
	return o
}

// decode reads a plain JSON response into the outcome.
func (c *client) decode(r io.Reader, o *outcome) error {
	if o.status != http.StatusOK {
		var e service.ErrorBody
		if json.NewDecoder(r).Decode(&e) == nil {
			return fmt.Errorf("%s: status %d: %s", o.req.Op, o.status, e.Error)
		}
		return fmt.Errorf("%s: status %d", o.req.Op, o.status)
	}
	dec := json.NewDecoder(r)
	switch o.req.Op {
	case "upload":
		var info service.SpecInfo
		if err := dec.Decode(&info); err != nil {
			return fmt.Errorf("upload: %w", err)
		}
		o.uploadHash = info.Hash
	case "solve":
		var v service.JobView
		if err := dec.Decode(&v); err != nil {
			return fmt.Errorf("solve: %w", err)
		}
		o.job, o.result = &v, v.Result
	case "create", "resume":
		var v service.SessionView
		if err := dec.Decode(&v); err != nil {
			return fmt.Errorf("%s: %w", o.req.Op, err)
		}
		o.result, o.sessOutcome = v.Result, v.Outcome
	}
	return nil
}

// readStream consumes a /v1/solve/stream event stream: it notes when
// the first solution arrived, checks the streamed solutions against the
// final result, and keeps the closing job view.
func (c *client) readStream(r io.Reader, o *outcome) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var event string
	var streamed []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "solution":
				if len(streamed) == 0 {
					o.firstSolution = time.Since(c.clock)
				}
				var sol service.StreamSolution
				if err := json.Unmarshal(data, &sol); err != nil {
					return fmt.Errorf("stream solution: %w", err)
				}
				streamed = append(streamed, sol.Trace)
			case "done":
				var v service.JobView
				if err := json.Unmarshal(data, &v); err != nil {
					return fmt.Errorf("stream done: %w", err)
				}
				o.job, o.result = &v, v.Result
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if o.result == nil {
		return fmt.Errorf("stream: no done event")
	}
	if !sameSet(streamed, o.result.Solutions) {
		return fmt.Errorf("stream: %d streamed solutions differ from the %d in the result", len(streamed), len(o.result.Solutions))
	}
	return nil
}

// sameSet reports whether a and b hold the same strings, in any order.
func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int, len(a))
	for _, s := range a {
		seen[s]++
	}
	for _, s := range b {
		if seen[s] == 0 {
			return false
		}
		seen[s]--
	}
	return true
}
