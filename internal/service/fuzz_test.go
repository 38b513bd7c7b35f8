package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"smoothproc/internal/store"
)

// FuzzHandlers sends random bodies to every POST endpoint, all on one
// server with small bounds: the four that take a spec or a solve
// request, the resume and delta endpoints of a session created for the
// fuzz spec (fig4, whose channel b is eliminable), and store GC. It also
// sends the fuzzed string, path-escaped, as the parameter of the GET
// endpoints /v1/jobs/{id}, /v1/sessions/{hash} and /v1/store/{kind}. No
// response may be a 5xx other than the load-shed 503, and every
// application/json body must decode.
func FuzzHandlers(f *testing.F) {
	srv, err := New(Config{
		Workers:        2,
		QueueDepth:     8,
		MaxDepth:       4,
		MaxNodes:       2_000,
		DefaultTimeout: 200 * time.Millisecond,
		MaxTimeout:     200 * time.Millisecond,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	h := srv.Handler()
	hash := specHash(fig4)
	paths := []string{"/v1/specs", "/v1/solve", "/v1/solve/stream", "/v1/sessions",
		"/v1/sessions/" + hash + "/resume", "/v1/sessions/" + hash + "/delta", "/v1/store/gc"}
	// The GET endpoints follow the POST paths, so endpoint indices below
	// len(paths) keep their meaning.
	gets := []string{"/v1/jobs/", "/v1/sessions/", "/v1/store/"}
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	post := func(path, body string) *httptest.ResponseRecorder { return serve(http.MethodPost, path, body) }

	src, err := json.Marshal(fig4)
	if err != nil {
		f.Fatal(err)
	}
	if rec := post("/v1/specs", fmt.Sprintf(`{"source":%s}`, src)); rec.Code != http.StatusOK {
		f.Fatalf("upload: status %d: %s", rec.Code, rec.Body)
	}
	if rec := post("/v1/sessions", fmt.Sprintf(`{"spec_hash":%q,"depth":2}`, hash)); rec.Code != http.StatusOK {
		f.Fatalf("session create: status %d: %s", rec.Code, rec.Body)
	}
	rec := post("/v1/solve", fmt.Sprintf(`{"spec_hash":%q,"wait":true}`, hash))
	var job JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil || job.ID == "" {
		f.Fatalf("solve: status %d: %s", rec.Code, rec.Body)
	}
	for i := range paths[:4] {
		f.Add(uint8(i), fmt.Sprintf(`{"source":%s}`, src))
		f.Add(uint8(i), fmt.Sprintf(`{"spec_hash":%q,"wait":true}`, hash))
		f.Add(uint8(i), fmt.Sprintf(`{"spec_hash":%q,"no_cache":true,"wait":true}`, hash))
		f.Add(uint8(i), fmt.Sprintf(`{"spec_hash":%q,"depth":3,"bogus":1}`, hash))
		f.Add(uint8(i), fmt.Sprintf(`{"spec_hash":%q,"depth":1000000000,"max_nodes":-1}`, hash))
	}
	f.Add(uint8(0), `{"source":"alphabet a = {0}\ndesc a <- a\n"}`)
	f.Add(uint8(0), `{"source":"alphabet a = ints 0 .. 9223372036854775807\ndesc a <- a\n"}`)
	f.Add(uint8(1), `{"spec_hash":"0000","source":"x"}`)
	f.Add(uint8(4), `{"depth":3}`)
	f.Add(uint8(4), `{"depth":1}`)
	f.Add(uint8(5), `{"channel":"b","check":true}`)
	f.Add(uint8(5), `{"channel":"zz"}`)
	f.Add(uint8(6), `{"max_bytes":-1}`)
	f.Add(uint8(6), `{"max_bytes":0}`)
	f.Add(uint8(7), job.ID)
	f.Add(uint8(8), hash)
	for _, k := range store.Kinds() {
		f.Add(uint8(9), string(k))
	}
	f.Add(uint8(9), "checkpoint")
	f.Add(uint8(8), specHash(fig4+"# no spec behind this hash\n"))

	f.Fuzz(func(t *testing.T, endpoint uint8, body string) {
		method, path := http.MethodPost, ""
		if i := int(endpoint) % (len(paths) + len(gets)); i < len(paths) {
			path = paths[i]
		} else {
			method, path, body = http.MethodGet, gets[i-len(paths)]+url.PathEscape(body), ""
		}
		rec := serve(method, path, body)
		if rec.Code >= 500 && (rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), ErrQueueFull.Error())) {
			t.Fatalf("%s %s %q: status %d: %s", method, path, body, rec.Code, rec.Body)
		}
		if rec.Header().Get("Content-Type") == "application/json" {
			var v any
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Fatalf("%s %s %q: status %d body does not decode: %v: %s", method, path, body, rec.Code, err, rec.Body)
			}
		}
	})
}
