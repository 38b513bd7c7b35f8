package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/session"
	"smoothproc/internal/store"
)

// postJSONTenant is postJSON with an X-Smoothproc-Tenant header.
func postJSONTenant(t *testing.T, url, tenant string, body any) (*http.Response, []byte) {
	t.Helper()
	js, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Smoothproc-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// metricValue reads one named counter from /metrics (0 when absent).
func metricValue(t *testing.T, baseURL, section, item string) int64 {
	t.Helper()
	var stats struct {
		Sections []struct {
			Name  string `json:"name"`
			Items []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"items"`
		} `json:"sections"`
	}
	if code := getJSON(t, baseURL+"/metrics", &stats); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	for _, sec := range stats.Sections {
		if sec.Name != section {
			continue
		}
		for _, it := range sec.Items {
			if it.Name == item {
				return it.Value
			}
		}
	}
	return 0
}

// TestRestartDurability is the durable-layer round trip: upload a spec,
// solve it, run a session leg, tear the whole Service down, rebuild on
// the same data dir — the spec resolves by hash, the solve is a result
// cache hit with zero new search work, and the session resumes from its
// persisted checkpoint with a result byte-identical to a never-restarted
// control session.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, DataDir: dir}

	// First life: upload, solve, open a session at depth 2.
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	resp, body := postJSON(t, ts1.URL+"/v1/specs", SpecRequest{Source: fig4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	hash := decode[SpecInfo](t, body).Hash

	resp, body = postJSON(t, ts1.URL+"/v1/solve", SolveRequest{SpecHash: hash, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first solve: status %d: %s", resp.StatusCode, body)
	}
	firstResult := decode[JobView](t, body).Result
	if firstResult == nil || firstResult.Cached {
		t.Fatalf("first solve result = %+v, want fresh", firstResult)
	}

	resp, body = postJSON(t, ts1.URL+"/v1/sessions", SessionRequest{SpecHash: hash, Depth: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: status %d: %s", resp.StatusCode, body)
	}
	leg1 := decode[SessionView](t, body)
	if leg1.Outcome != "cold" {
		t.Fatalf("first leg outcome = %q, want cold", leg1.Outcome)
	}

	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Second life, same data dir.
	srv2, ts2 := newTestServer(t, cfg)

	// The spec resolves by hash without re-upload…
	resp, body = postJSON(t, ts2.URL+"/v1/solve", SolveRequest{SpecHash: hash, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart solve: status %d: %s", resp.StatusCode, body)
	}
	again := decode[JobView](t, body)
	// …and the answer is a store-backed cache hit: no job ran, no node
	// was searched.
	if again.Result == nil || !again.Result.Cached {
		t.Fatalf("post-restart solve result = %+v, want cached", again.Result)
	}
	if !reflect.DeepEqual(again.Result.Solutions, firstResult.Solutions) {
		t.Errorf("post-restart solutions %v != first life %v", again.Result.Solutions, firstResult.Solutions)
	}
	if n := srv2.nodesSearched.Load(); n != 0 {
		t.Errorf("post-restart cached solve searched %d nodes, want 0", n)
	}

	// The session is rebuilt from its persisted checkpoint…
	var got SessionView
	if code := getJSON(t, ts2.URL+"/v1/sessions/"+hash, &got); code != http.StatusOK {
		t.Fatalf("post-restart session get: status %d", code)
	}
	if got.Nodes != leg1.Nodes || got.Depth != leg1.Depth {
		t.Errorf("restored session nodes=%d depth=%d, want %d/%d", got.Nodes, got.Depth, leg1.Nodes, leg1.Depth)
	}
	if r := metricValue(t, ts2.URL, "sessions", "restored from store"); r < 1 {
		t.Errorf("sessions restored from store = %d, want ≥ 1", r)
	}

	// …and a deepened resume matches a control session that never
	// restarted: same solutions, same node count, same deterministic
	// stats — the restart is invisible to the search.
	resp, body = postJSON(t, ts2.URL+"/v1/sessions/"+hash+"/resume", SessionRequest{Depth: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart resume: status %d: %s", resp.StatusCode, body)
	}
	resumed := decode[SessionView](t, body)
	if resumed.Outcome != "resumed" {
		t.Errorf("post-restart resume outcome = %q, want resumed", resumed.Outcome)
	}
	// The spec came back from the store, so nothing wrote it again.
	if puts := metricValue(t, ts2.URL, "store", "spec puts"); puts != 0 {
		t.Errorf("post-restart spec puts = %d, want 0", puts)
	}

	_, tsCtl := newTestServer(t, Config{Workers: 2})
	resp, body = postJSON(t, tsCtl.URL+"/v1/sessions", SessionRequest{Source: fig4, Depth: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("control session: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, tsCtl.URL+"/v1/sessions/"+hash+"/resume", SessionRequest{Depth: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("control resume: status %d: %s", resp.StatusCode, body)
	}
	control := decode[SessionView](t, body)

	if !reflect.DeepEqual(resumed.Result.Solutions, control.Result.Solutions) {
		t.Errorf("resumed solutions %v != control %v", resumed.Result.Solutions, control.Result.Solutions)
	}
	if resumed.Result.Nodes != control.Result.Nodes || resumed.Nodes != control.Nodes {
		t.Errorf("resumed nodes %d/%d != control %d/%d", resumed.Result.Nodes, resumed.Nodes, control.Result.Nodes, control.Nodes)
	}
	if !reflect.DeepEqual(resumed.Result.Stats, control.Result.Stats) {
		t.Errorf("resumed stats diverge from control:\n%+v\nvs\n%+v", resumed.Result.Stats, control.Result.Stats)
	}
}

// TestTenantQuota429 pins the two rejection shapes apart: a tenant over
// its own queue quota gets a structured 429 naming the quota while the
// server still has room — and other tenants keep being admitted.
func TestTenantQuota429(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16, TenantMaxQueued: 1})
	var accepted, quotaRejected int
	for i := 0; i < 4; i++ {
		resp, body := postJSONTenant(t, ts.URL+"/v1/solve", "alice", SolveRequest{Source: wideMerge, NoCache: true})
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			quotaRejected++
			eb := decode[ErrorBody](t, body)
			if eb.Quota == nil || eb.Quota.Tenant != "alice" || eb.Quota.Quota != "max_queued" {
				t.Fatalf("429 body lacks structured quota: %s", body)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Fatalf("submission %d: status %d: %s", i, resp.StatusCode, body)
		}
		if i == 0 {
			// Let the one worker take the first job off alice's queue, so
			// the next submission queues behind it instead of racing the
			// dequeue for the queue's one slot.
			for deadline := time.Now().Add(10 * time.Second); metricValue(t, ts.URL, "tenants", "alice running") != 1; {
				if time.Now().After(deadline) {
					t.Fatal("first job never started running")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	if accepted != 2 || quotaRejected != 2 {
		t.Errorf("accepted=%d quotaRejected=%d, want 2/2 (1 running + 1 queued)", accepted, quotaRejected)
	}
	// The server is not full — a different tenant is admitted.
	resp, body := postJSONTenant(t, ts.URL+"/v1/solve", "bob", SolveRequest{Source: wideMerge, NoCache: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob alongside alice's quota rejection: status %d: %s", resp.StatusCode, body)
	}
	if v := metricValue(t, ts.URL, "tenants", "alice quota rejected"); v != 2 {
		t.Errorf("alice quota rejected metric = %d, want 2", v)
	}
	// Force-drain so cleanup doesn't wait out the giant searches.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	srv.Shutdown(ctx)
}

// TestTenantFairnessOverHTTP queues two tenants' work on one worker and
// asserts via per-tenant metrics that both make progress to completion —
// the observable form of the scheduler's fair-queuing guarantee.
func TestTenantFairnessOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 32})
	const each = 3
	for i := 0; i < each; i++ {
		for _, tenant := range []string{"alice", "bob"} {
			resp, body := postJSONTenant(t, ts.URL+"/v1/solve", tenant,
				SolveRequest{Source: fig4, Depth: 2 + i, NoCache: true})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s solve %d: status %d: %s", tenant, i, resp.StatusCode, body)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		a := metricValue(t, ts.URL, "tenants", "alice completed")
		b := metricValue(t, ts.URL, "tenants", "bob completed")
		if a == each && b == each {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenants did not drain: alice=%d bob=%d, want %d each", a, b, each)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if q := metricValue(t, ts.URL, "jobs", "queued"); q != 0 {
		t.Errorf("queue depth after drain = %d, want 0", q)
	}
}

// TestJobTraceAndSpans: a solve carries its trace ID end to end and the
// job view reports per-stage spans.
func TestJobTraceAndSpans(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	js, _ := json.Marshal(SolveRequest{Source: fig4, Wait: true, NoCache: true})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Smoothproc-Trace", "trace-42")
	req.Header.Set("X-Smoothproc-Tenant", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, buf.Bytes())
	}
	job := decode[JobView](t, buf.Bytes())
	if job.Tenant != "alice" || job.TraceID != "trace-42" {
		t.Errorf("job tenant=%q trace=%q, want alice/trace-42", job.Tenant, job.TraceID)
	}
	names := make([]string, 0, len(job.Spans))
	for _, sp := range job.Spans {
		names = append(names, sp.Name)
	}
	if len(names) != 3 || names[0] != "admit" || names[1] != "queue" || names[2] != "run" {
		t.Errorf("span names = %v, want [admit queue run]", names)
	}
	// A solve without the header still gets a generated trace ID.
	resp2, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: fig4, Wait: true, NoCache: true})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body)
	}
	if decode[JobView](t, body).TraceID == "" {
		t.Error("server did not mint a trace ID")
	}
}

// TestStoreEndpoints covers the ops surface: stats, per-kind listing,
// and GC down to zero bytes.
func TestStoreEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, body := postJSON(t, ts.URL+"/v1/specs", SpecRequest{Source: fig4}); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: fig4, Wait: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}

	var sv StoreView
	if code := getJSON(t, ts.URL+"/v1/store", &sv); code != http.StatusOK {
		t.Fatalf("store stats: status %d", code)
	}
	if sv.Backend != "memory" {
		t.Errorf("backend = %q, want memory", sv.Backend)
	}
	byKind := map[string]StoreKindView{}
	for _, kv := range sv.Kinds {
		byKind[kv.Kind] = kv
	}
	if byKind["spec"].Objects != 1 || byKind["result"].Objects != 1 {
		t.Errorf("store objects spec=%d result=%d, want 1/1", byKind["spec"].Objects, byKind["result"].Objects)
	}
	if byKind["spec"].Stats.Puts < 1 {
		t.Errorf("spec puts = %d, want ≥ 1", byKind["spec"].Stats.Puts)
	}

	var lv StoreListView
	if code := getJSON(t, ts.URL+"/v1/store/spec", &lv); code != http.StatusOK || len(lv.Objects) != 1 {
		t.Fatalf("store list: code %d objects %d", code, len(lv.Objects))
	}
	if lv.Objects[0].Size != int64(len(fig4)) {
		t.Errorf("spec blob size %d, want %d", lv.Objects[0].Size, len(fig4))
	}
	var bogus StoreListView
	if code := getJSON(t, ts.URL+"/v1/store/bogus", &bogus); code != http.StatusNotFound {
		t.Errorf("unknown kind: status %d, want 404", code)
	}

	resp, body := postJSON(t, ts.URL+"/v1/store/gc", StoreGCRequest{MaxBytes: 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gc: status %d: %s", resp.StatusCode, body)
	}
	gc := decode[StoreGCView](t, body)
	if len(gc.Deleted) != sv.TotalObjects || gc.RemainingBytes != 0 {
		t.Errorf("gc deleted %d objects, %d bytes remain; want %d deleted, 0 remaining",
			len(gc.Deleted), gc.RemainingBytes, sv.TotalObjects)
	}
}

// TestSessionSurvivesCacheEviction: with a 1-entry session cache, two
// interleaved sessions evict each other — the store restore path keeps
// both resumable with full fidelity, so eviction degrades memory, not
// correctness.
func TestSessionSurvivesCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, SessionCacheSize: 1})
	dfm := "alphabet b = {0}\nalphabet c = {1}\nalphabet d = {0, 1}\ndepth 4\ndesc even(d) <- b\ndesc odd(d)  <- c\ndesc b <- [0]\ndesc c <- [1]\n"
	specs := []string{fig4, dfm}
	hashes := make([]string, len(specs))
	views := make([]SessionView, len(specs))
	for i, src := range specs {
		resp, body := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Source: src, Depth: 2})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session %d: status %d: %s", i, resp.StatusCode, body)
		}
		views[i] = decode[SessionView](t, body)
		hashes[i] = views[i].SpecHash
	}
	// Both sessions deepen correctly even though at most one fit the LRU.
	for i := range specs {
		resp, body := postJSON(t, ts.URL+"/v1/sessions/"+hashes[i]+"/resume", SessionRequest{Depth: 4})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("resume %d: status %d: %s", i, resp.StatusCode, body)
		}
		got := decode[SessionView](t, body)
		if got.Outcome != "resumed" || got.Nodes <= views[i].Nodes {
			t.Errorf("session %d: outcome=%q nodes %d→%d, want resumed and growth", i, got.Outcome, views[i].Nodes, got.Nodes)
		}
		if len(got.Result.Solutions) == 0 {
			t.Errorf("session %d: no solutions after deepen", i)
		}
	}
	if r := metricValue(t, ts.URL, "sessions", "restored from store"); r < 1 {
		t.Errorf("restored from store = %d, want ≥ 1 (cache cap forces eviction)", r)
	}
}

// TestUndecodableSessionStartsCold plants a session record that cannot
// be decoded and opens the session over HTTP: a JSON meta record of
// version 2, the layout before a session was one record; a record of
// version 3, whose header also held a replay count; a record with one
// shape byte flipped; a truncated record; and the record of another
// spec, the same buffer under another hash, planted under this spec's
// hash, whose checkpoint alone would decode. Each time the leg must
// answer cold, the store section's error count must rise by one, and
// the record the leg persists must decode.
func TestUndecodableSessionStartsCold(t *testing.T) {
	ctx := context.Background()
	src, err := os.ReadFile(filepath.Join("..", "..", "specs", "kahn-buffer.eq"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := eqlang.CompileSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	hash := specHash(string(src))

	// Real depth-2 legs supply the records to plant.
	record := func(key string) []byte {
		t.Helper()
		live := session.New(key, prog.Problem(), prog.System)
		if _, _, err := live.Solve(ctx, session.Options{Depth: 2}); err != nil {
			t.Fatal(err)
		}
		data, err := live.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	own := record(hash)
	// A checkpoint ends with its check value, a uvarint, whose bytes but
	// the last have the high bit set; the byte before it is the last of
	// the shape records.
	flipped := bytes.Clone(own)
	i := len(flipped) - 2
	for flipped[i]&0x80 != 0 {
		i--
	}
	flipped[i] ^= 1
	// The header is the version, the key's length and the key: a
	// version 3 record put a replay count between the key and the
	// checkpoint.
	cp := 1 + len(binary.AppendUvarint(nil, uint64(len(hash)))) + len(hash)
	v3 := slices.Concat([]byte{3}, own[1:cp], []byte{0}, own[cp:])
	v2 := fmt.Sprintf(`{"version":2,"key":%q,"max_depth":2,"max_nodes":500000,"solves":1,"resumes":0,"replays":0,"checkpoint":%q}`,
		hash, store.KeyOf(own))

	for _, tc := range []struct {
		name   string
		record []byte
	}{
		{"v2 meta", []byte(v2)},
		{"v3 record", v3},
		{"flipped shape byte", flipped},
		{"truncated record", own[:len(own)/2]},
		{"record of another spec", record(specHash(string(src) + "# the same buffer under another hash\n"))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{Workers: 1})
			if err := srv.store.Put(ctx, store.KindSession, store.Key(hash), tc.record); err != nil {
				t.Fatal(err)
			}
			before := metricValue(t, ts.URL, "store", "errors")
			resp, body := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Source: string(src), Depth: 4})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("session create: status %d: %s", resp.StatusCode, body)
			}
			leg := decode[SessionView](t, body)
			if leg.Outcome != "cold" {
				t.Errorf("outcome = %q, want cold", leg.Outcome)
			}
			if got := metricValue(t, ts.URL, "store", "errors"); got != before+1 {
				t.Errorf("store errors %d → %d, want one more", before, got)
			}

			data, err := srv.store.Get(ctx, store.KindSession, store.Key(hash))
			if err != nil {
				t.Fatal(err)
			}
			restored, err := session.Decode(data, hash, prog.Problem(), prog.System)
			if err != nil {
				t.Fatalf("the persisted leg does not decode: %v", err)
			}
			if restored.Depth() != 4 || restored.Nodes() != leg.Nodes {
				t.Errorf("persisted leg: depth %d nodes %d, want 4 and %d", restored.Depth(), restored.Nodes(), leg.Nodes)
			}
		})
	}
}

// TestSessionIsOneRecord: a cold or resumed leg of a session writes one
// store object, its record under the spec hash, and a replayed leg
// writes nothing. A restart restores the session from the record alone,
// with the bounds of its latest leg and the live session's counts but
// its replays, which the record does not hold.
func TestSessionIsOneRecord(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dir}
	srv1, ts1 := newTestServer(t, cfg)
	var live SessionView
	for i, leg := range []struct {
		req     SessionRequest
		outcome string
		puts    int64
	}{
		{SessionRequest{Source: fig4, Depth: 2, MaxNodes: 1_000}, "cold", 1},
		{SessionRequest{Depth: 4, MaxNodes: 5_000}, "resumed", 2},
		{SessionRequest{Depth: 4, MaxNodes: 5_000}, "replayed", 2},
	} {
		url := ts1.URL + "/v1/sessions"
		if i > 0 {
			url += "/" + live.SpecHash + "/resume"
		}
		resp, body := postJSON(t, url, leg.req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("leg %d: status %d: %s", i, resp.StatusCode, body)
		}
		live = decode[SessionView](t, body)
		if live.Outcome != leg.outcome {
			t.Errorf("leg %d: outcome %q, want %q", i, live.Outcome, leg.outcome)
		}
		if puts := metricValue(t, ts1.URL, "store", "session puts"); puts != leg.puts {
			t.Errorf("after leg %d: %d session puts, want %d", i, puts, leg.puts)
		}
	}
	if live.Depth != 4 || live.Solves != 3 || live.Replays != 1 {
		t.Fatalf("live session: %+v", live)
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, cfg)
	var got SessionView
	if code := getJSON(t, ts2.URL+"/v1/sessions/"+live.SpecHash, &got); code != http.StatusOK {
		t.Fatalf("restored session: status %d", code)
	}
	live.Outcome, live.Result = "", nil
	live.Solves, live.Replays = 2, 0
	if got != live {
		t.Errorf("restored session %+v, live %+v", got, live)
	}

	var sv StoreView
	if code := getJSON(t, ts2.URL+"/v1/store", &sv); code != http.StatusOK {
		t.Fatalf("store stats: status %d", code)
	}
	var kinds []string
	for _, kv := range sv.Kinds {
		kinds = append(kinds, kv.Kind)
	}
	if !reflect.DeepEqual(kinds, []string{"spec", "result", "session"}) {
		t.Errorf("store kinds %v, want [spec result session]", kinds)
	}
	var lv StoreListView
	if code := getJSON(t, ts2.URL+"/v1/store/session", &lv); code != http.StatusOK {
		t.Fatalf("session list: status %d", code)
	}
	if len(lv.Objects) != 1 || string(lv.Objects[0].Key) != live.SpecHash {
		t.Errorf("session objects %+v, want one under %s", lv.Objects, live.SpecHash)
	}
}
