package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sapalloc/internal/faultinject"
	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/obs"
)

// The obs counters these tests assert on are process-global, so the suite
// cannot use t.Parallel within this file.

func testInstance(weightSalt int64) *model.Instance {
	return &model.Instance{
		Capacity: []int64{8, 6, 8, 4},
		Tasks: []model.Task{
			{ID: 0, Start: 0, End: 2, Demand: 3, Weight: 10 + weightSalt},
			{ID: 1, Start: 1, End: 4, Demand: 2, Weight: 7},
			{ID: 2, Start: 2, End: 3, Demand: 5, Weight: 4},
			{ID: 3, Start: 0, End: 1, Demand: 4, Weight: 6},
			{ID: 4, Start: 3, End: 4, Demand: 1, Weight: 9},
		},
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, got
}

func encodeInstance(t *testing.T, in *model.Instance) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	obs.Reset()
	obs.EnableMetrics()
	t.Cleanup(obs.DisableMetrics)
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestServePathCacheByteIdentical is the tentpole end-to-end check: a
// repeated instance — even under task permutation — is served from the
// cache without re-entering the solver, with byte-identical body.
func TestServePathCacheByteIdentical(t *testing.T) {
	ts := newTestServer(t, Config{})
	in := testInstance(0)
	body := encodeInstance(t, in)

	resp1, got1 := postJSON(t, ts, "/v1/solve", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: status %d, body %s", resp1.StatusCode, got1)
	}
	if src := resp1.Header.Get("X-Sapalloc-Cache"); src != "miss" {
		t.Errorf("first POST cache header = %q, want miss", src)
	}
	solves := obs.SolvesStarted.Value()
	hits := obs.ServeCacheHits.Value()

	// Same instance, tasks permuted: must be a cache hit with the exact
	// same bytes, and the solver must not run again.
	perm := in.Clone()
	perm.Tasks[0], perm.Tasks[3] = perm.Tasks[3], perm.Tasks[0]
	perm.Tasks[1], perm.Tasks[4] = perm.Tasks[4], perm.Tasks[1]
	resp2, got2 := postJSON(t, ts, "/v1/solve", encodeInstance(t, perm))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: status %d, body %s", resp2.StatusCode, got2)
	}
	if !bytes.Equal(got1, got2) {
		t.Errorf("cached response differs from fresh response:\n%s\nvs\n%s", got1, got2)
	}
	if src := resp2.Header.Get("X-Sapalloc-Cache"); src != "hit" {
		t.Errorf("second POST cache header = %q, want hit", src)
	}
	if d := obs.SolvesStarted.Value() - solves; d != 0 {
		t.Errorf("cache hit re-entered the solver %d times", d)
	}
	if d := obs.ServeCacheHits.Value() - hits; d != 1 {
		t.Errorf("serve_cache_hits delta = %d, want 1", d)
	}

	var doc struct {
		Kind   string `json:"kind"`
		Weight int64  `json:"weight"`
		Items  []struct {
			TaskID int   `json:"task_id"`
			Height int64 `json:"height"`
		} `json:"items"`
	}
	if err := json.Unmarshal(got1, &doc); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	if doc.Kind != "path" || doc.Weight <= 0 || len(doc.Items) == 0 {
		t.Errorf("implausible solve response: %s", got1)
	}
	for i := 1; i < len(doc.Items); i++ {
		if doc.Items[i-1].TaskID >= doc.Items[i].TaskID {
			t.Errorf("response items not sorted by task id: %s", got1)
		}
	}
}

func TestServeRingCacheByteIdentical(t *testing.T) {
	ts := newTestServer(t, Config{})
	ring := &model.RingInstance{
		Capacity: []int64{6, 4, 6, 5},
		Tasks: []model.RingTask{
			{ID: 0, Start: 0, End: 2, Demand: 2, Weight: 8},
			{ID: 1, Start: 3, End: 1, Demand: 3, Weight: 5}, // crosses the seam
			{ID: 2, Start: 2, End: 3, Demand: 1, Weight: 4},
		},
	}
	var buf bytes.Buffer
	if err := ring.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	resp1, got1 := postJSON(t, ts, "/v1/solve", buf.Bytes())
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("ring POST: status %d, body %s", resp1.StatusCode, got1)
	}
	solves := obs.SolvesStarted.Value()
	resp2, got2 := postJSON(t, ts, "/v1/solve", buf.Bytes())
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(got1, got2) {
		t.Errorf("repeated ring POST not byte-identical (status %d):\n%s\nvs\n%s",
			resp2.StatusCode, got1, got2)
	}
	if src := resp2.Header.Get("X-Sapalloc-Cache"); src != "hit" {
		t.Errorf("repeated ring POST cache header = %q, want hit", src)
	}
	if d := obs.SolvesStarted.Value() - solves; d != 0 {
		t.Errorf("ring cache hit re-entered the solver %d times", d)
	}
	var doc struct {
		Kind  string `json:"kind"`
		Items []struct {
			Orientation string `json:"orientation"`
		} `json:"items"`
	}
	if err := json.Unmarshal(got1, &doc); err != nil || doc.Kind != "ring" {
		t.Fatalf("ring response malformed (err %v): %s", err, got1)
	}
	for _, it := range doc.Items {
		if it.Orientation != "cw" && it.Orientation != "ccw" {
			t.Errorf("ring item missing orientation: %s", got1)
		}
	}
}

// TestServeSingleflight floods the server with concurrent identical
// requests and demands exactly one underlying solve: every response is
// byte-identical and the solver ran once. Run under -race in CI.
func TestServeSingleflight(t *testing.T) {
	ts := newTestServer(t, Config{Concurrency: 4, Queue: 64})
	body := encodeInstance(t, testInstance(3))
	solves := obs.SolvesStarted.Value()

	const clients = 32
	bodies := make([][]byte, clients)
	statuses := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("client %d: status %d, body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("client %d got a different body", i)
		}
	}
	if d := obs.SolvesStarted.Value() - solves; d != 1 {
		t.Errorf("%d underlying solves for %d identical requests, want exactly 1", d, clients)
	}
	reqs := obs.ServeCacheHits.Value() + obs.ServeCacheMiss.Value() + obs.ServeCacheDedup.Value()
	if reqs != clients {
		t.Errorf("hit+miss+dedup = %d, want %d (exactly one per request)", reqs, clients)
	}
	if obs.ServeCacheMiss.Value() != 1 {
		t.Errorf("serve_cache_misses = %d, want exactly 1", obs.ServeCacheMiss.Value())
	}
}

// TestServeQueueOverflow pins the load-shedding contract: with one solve
// slot and a one-deep queue, a third concurrent request is refused with
// 429 + Retry-After while the first two complete normally. A faultinject
// delay at serve/solve holds the first request in the solver so the
// sequencing is deterministic.
func TestServeQueueOverflow(t *testing.T) {
	plan := faultinject.NewPlan(faultinject.Injection{
		Site: "serve/solve", Kind: faultinject.KindDelay, Delay: 300 * time.Millisecond, Once: true,
	})
	deactivate := faultinject.Activate(plan)
	defer deactivate()

	ts := newTestServer(t, Config{Concurrency: 1, Queue: 1, RetryAfter: 2 * time.Second})

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	post := func(salt int64) {
		resp, got := postJSON(t, ts, "/v1/solve", encodeInstance(t, testInstance(salt)))
		results <- result{resp.StatusCode, got}
	}

	// Request A occupies the solve slot (held in the injected delay).
	go post(1)
	waitFor(t, "request A inside the solver", func() bool {
		return plan.Hits("serve/solve") >= 1
	})
	// Request B fills the one queue position.
	go post(2)
	waitFor(t, "request B queued", func() bool {
		return obs.ServeQueueDepth.Value() >= 2
	})
	// Request C must be shed: queue full.
	resp, got := postJSON(t, ts, "/v1/solve", encodeInstance(t, testInstance(3)))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, body %s", resp.StatusCode, got)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	if obs.ServeRejected.Value() != 1 {
		t.Errorf("serve_rejected = %d, want 1", obs.ServeRejected.Value())
	}
	// A and B drain normally once the delay elapses.
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Errorf("queued request: status %d, body %s", r.status, r.body)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServeInputErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"kind": "path",`, http.StatusBadRequest},
		{"unknown kind", `{"kind": "tree", "capacity": [1], "tasks": []}`, http.StatusBadRequest},
		{"invalid instance", `{"kind": "path", "capacity": [-1], "tasks": []}`, http.StatusBadRequest},
		{"duplicate task ids", `{"kind": "path", "capacity": [4], "tasks": [
			{"id": 0, "start": 0, "end": 1, "demand": 1, "weight": 1},
			{"id": 0, "start": 0, "end": 1, "demand": 1, "weight": 1}]}`, http.StatusBadRequest},
		{"ring kind with path shape ok", `{"kind": "ring", "capacity": [2, 2, 2],
			"tasks": [{"id": 0, "start": 0, "end": 1, "demand": 1, "weight": 1}]}`, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, got := postJSON(t, ts, "/v1/solve", []byte(tc.body))
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d; body %s", resp.StatusCode, tc.want, got)
			}
			if tc.want >= 400 {
				var doc struct {
					Error  string `json:"error"`
					Status int    `json:"status"`
				}
				if err := json.Unmarshal(got, &doc); err != nil || doc.Error == "" || doc.Status != tc.want {
					t.Errorf("error body not in the JSON error format: %s", got)
				}
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve: status %d, want 405", resp.StatusCode)
	}

	resp, got := postJSON(t, ts, "/v1/solve?timeout=banana", encodeInstance(t, testInstance(0)))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timeout param: status %d, body %s", resp.StatusCode, got)
	}
}

func TestServeHealthAndMetrics(t *testing.T) {
	obs.Reset()
	obs.EnableMetrics()
	defer obs.DisableMetrics()
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: status %d, want 200", resp.StatusCode)
	}

	// /metricsz is the expvar bridge: after one solve the serve counters
	// must be visible in its JSON document.
	_, _ = postJSON(t, ts, "/v1/solve", encodeInstance(t, testInstance(0)))
	resp, err = http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(metrics, &doc); err != nil {
		t.Fatalf("/metricsz is not JSON: %v", err)
	}
	sap, ok := doc["sapalloc_metrics"]
	if !ok {
		t.Fatalf("/metricsz has no sapalloc_metrics var: %s", metrics)
	}
	if !bytes.Contains(sap, []byte("serve_requests")) {
		t.Errorf("sapalloc expvar missing serve_requests: %s", sap)
	}

	// Draining: health flips to 503 so balancers stop routing, and new
	// solves are refused while in-flight ones are unaffected.
	srv.StartDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz: status %d, want 503", resp.StatusCode)
	}
	resp, got := postJSON(t, ts, "/v1/solve", encodeInstance(t, testInstance(0)))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining POST: status %d, body %s", resp.StatusCode, got)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining POST missing Retry-After")
	}
}

// TestServeDegradedNotCached arms a cancel-shaped deadline so the solve
// cannot finish; whatever the server returns, a degraded or failed result
// must not populate the cache as if it were the instance's answer.
func TestServeDegradedNotCached(t *testing.T) {
	ts := newTestServer(t, Config{})
	in := testInstance(5)
	body := encodeInstance(t, in)

	// A microscopic deadline forces failure or degradation.
	resp1, _ := postJSON(t, ts, "/v1/solve?timeout=1ns", body)
	// Now solve with a real deadline: the answer must come from a fresh
	// solve, not from a cache polluted by the crippled attempt.
	resp2, got2 := postJSON(t, ts, "/v1/solve", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("full-deadline POST: status %d, body %s", resp2.StatusCode, got2)
	}
	if resp1.StatusCode == http.StatusOK && resp2.Header.Get("X-Sapalloc-Cache") == "hit" {
		// A 1ns solve that "succeeded" must then have produced the same
		// non-degraded bytes a fresh solve yields — prove it.
		resp3, got3 := postJSON(t, ts, "/v1/solve", body)
		if resp3.StatusCode != http.StatusOK || !bytes.Equal(got2, got3) {
			t.Errorf("cache served bytes differing from a fresh solve")
		}
	}
	var doc struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(got2, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Degraded {
		t.Errorf("full-deadline solve reported degraded: %s", got2)
	}
}

func TestRequestTimeoutClamp(t *testing.T) {
	s := New(Config{MaxTimeout: 2 * time.Second, DefaultTimeout: time.Second})
	for _, tc := range []struct {
		query string
		want  time.Duration
		ok    bool
	}{
		{"", time.Second, true},
		{"timeout=500ms", 500 * time.Millisecond, true},
		{"timeout=1h", 2 * time.Second, true}, // clamped to MaxTimeout
		{"timeout=-1s", 0, false},
		{"timeout=0s", 0, false},
		{"timeout=soon", 0, false},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve?"+tc.query, nil)
		got, err := s.requestTimeout(r)
		if (err == nil) != tc.ok || (err == nil && got != tc.want) {
			t.Errorf("requestTimeout(%q) = %v, %v; want %v ok=%v", tc.query, got, err, tc.want, tc.ok)
		}
	}
}

func TestServeBodyLimit(t *testing.T) {
	ts := newTestServer(t, Config{MaxBodyBytes: 64})
	resp, got := postJSON(t, ts, "/v1/solve", bytes.Repeat([]byte("x"), 200))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, body %s", resp.StatusCode, got)
	}
}

// TestServeShardsField pins the shard count in the wire format: a
// decomposable instance reports how many sub-instances the solve split
// into, and a monolithic solve omits the field entirely.
func TestServeShardsField(t *testing.T) {
	ts := newTestServer(t, Config{})

	arch := gen.Archipelago(gen.ArchipelagoConfig{
		Seed: 901, Islands: 3, IslandEdges: 4, GapEdges: 2,
		TasksPerIsland: 5, CapLo: 16, CapHi: 65, Class: gen.Mixed,
	})
	resp, got := postJSON(t, ts, "/v1/solve", encodeInstance(t, arch))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("archipelago solve: status %d, body %s", resp.StatusCode, got)
	}
	var doc struct {
		Shards int `json:"shards"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Shards != 3 {
		t.Errorf("shards = %d, want 3 (body %s)", doc.Shards, got)
	}

	resp2, got2 := postJSON(t, ts, "/v1/solve", encodeInstance(t, testInstance(0)))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("monolithic solve: status %d, body %s", resp2.StatusCode, got2)
	}
	if bytes.Contains(got2, []byte(`"shards"`)) {
		t.Errorf("monolithic response carries a shards field: %s", got2)
	}
}

// TestAdmitClientGoneVsDeadline is the regression test for the admission
// give-up taxonomy: with every solve slot occupied, a queued request whose
// client disconnects fails with errClientGone (499, no Retry-After — nobody
// is listening), while a queued request whose wait deadline expires fails
// with errQueueTimeout (503 + Retry-After — the server was busy). Before
// this distinction existed, both context expiries collapsed into one
// status and a hung-up client still looked like server overload.
func TestAdmitClientGoneVsDeadline(t *testing.T) {
	obs.Reset()
	obs.EnableMetrics()
	defer obs.DisableMetrics()
	s := New(Config{Concurrency: 1, Queue: 4, RetryAfter: 2 * time.Second})
	s.slots <- struct{}{} // occupy the only solve slot

	// Client hangs up while queued.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	if _, err := s.admit(ctx, time.Minute); !errors.Is(err, errClientGone) {
		t.Fatalf("cancelled client: err = %v, want errClientGone", err)
	}
	if obs.ServeClientGone.Value() != 1 {
		t.Errorf("serve_client_gone = %d, want 1", obs.ServeClientGone.Value())
	}

	// Server-side queue-wait deadline expires.
	if _, err := s.admit(context.Background(), 20*time.Millisecond); !errors.Is(err, errQueueTimeout) {
		t.Fatalf("expired wait: err = %v, want errQueueTimeout", err)
	}

	// And the HTTP mapping: 499 without Retry-After for the hung-up
	// leader, 503 with Retry-After for a follower of an abandoned flight
	// and for the queue timeout.
	rec := httptest.NewRecorder()
	s.writeSolveError(rec, errClientGone, false)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("client-gone status = %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Errorf("client-gone response carries Retry-After %q", ra)
	}
	rec = httptest.NewRecorder()
	s.writeSolveError(rec, errClientGone, true)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("followed client-gone: status %d, Retry-After %q; want 503 with hint",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	rec = httptest.NewRecorder()
	s.writeSolveError(rec, errQueueTimeout, false)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("queue timeout: status %d, Retry-After %q; want 503 with hint",
			rec.Code, rec.Header().Get("Retry-After"))
	}
}
