package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzHandlers sends random bodies to every POST endpoint, all on one
// server with small bounds: the four that take a spec or a solve
// request, the resume and delta endpoints of a session created for the
// fuzz spec (fig4, whose channel b is eliminable), and store GC. No
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
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}

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

	f.Fuzz(func(t *testing.T, endpoint uint8, body string) {
		path := paths[int(endpoint)%len(paths)]
		rec := post(path, body)
		if rec.Code >= 500 && (rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), ErrQueueFull.Error())) {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if rec.Header().Get("Content-Type") == "application/json" {
			var v any
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Fatalf("POST %s %q: status %d body does not decode: %v: %s", path, body, rec.Code, err, rec.Body)
			}
		}
	})
}
