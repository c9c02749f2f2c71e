package serve

import (
	"bytes"
	"encoding/binary"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/sapcache"
	"sapalloc/internal/store"
)

// testStore opens a file store in a temp dir with the background flusher
// off, so tests flush explicitly.
func testStore(t *testing.T, dir string) *store.File {
	t.Helper()
	f, err := store.OpenFile(dir, store.FileConfig{FlushInterval: -1})
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	return f
}

// TestServeStoreWarmRestart is the serving-layer half of the PR's
// acceptance check (internal/difftest pins the end-to-end version): a
// server over a populated store answers with the original bytes, marked
// "store", without re-entering the solver, and the response carries the
// provenance header.
func TestServeStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	body := encodeInstance(t, testInstance(0))

	st1 := testStore(t, dir)
	ts1 := newTestServer(t, Config{Store: st1})
	resp1, got1 := postJSON(t, ts1, "/v1/solve", body)
	if resp1.StatusCode != 200 {
		t.Fatalf("first solve: %d %s", resp1.StatusCode, got1)
	}
	if src := resp1.Header.Get("X-Sapalloc-Cache"); src != "miss" {
		t.Fatalf("first solve source = %q, want miss", src)
	}
	solves := obs.SolvesStarted.Value()
	if solves == 0 {
		t.Fatal("no solve recorded for the miss")
	}
	ts1.Close()
	if err := st1.Close(); err != nil { // flushes the pending batch
		t.Fatal(err)
	}

	// "Restart": a brand-new server (cold LRU) over the same directory.
	st2 := testStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	if s := st2.Stats(); s.TailTruncated || s.RecoveryErr != nil {
		t.Fatalf("clean restart reported recovery: %+v", s)
	}
	ts2 := newTestServer(t, Config{Store: st2})
	resp2, got2 := postJSON(t, ts2, "/v1/solve", body)
	if resp2.StatusCode != 200 {
		t.Fatalf("warm solve: %d %s", resp2.StatusCode, got2)
	}
	if src := resp2.Header.Get("X-Sapalloc-Cache"); src != "store" {
		t.Fatalf("warm solve source = %q, want store", src)
	}
	if string(got2) != string(got1) {
		t.Fatalf("restarted response differs:\n  first: %s\n  warm:  %s", got1, got2)
	}
	if obs.SolvesStarted.Value() != 0 {
		t.Fatal("warm restart re-entered the solver")
	}
	prov := resp2.Header.Get(provenanceHeader)
	if prov == "" {
		t.Fatal("store-served response lacks the provenance header")
	}
	for _, field := range []string{"batch=", "index=", "record=", "root=", "head="} {
		if !strings.Contains(prov, field) {
			t.Fatalf("provenance header %q lacks %s", prov, field)
		}
	}

	// Second request on the same server: promoted to the LRU front.
	resp3, got3 := postJSON(t, ts2, "/v1/solve", body)
	if src := resp3.Header.Get("X-Sapalloc-Cache"); src != "hit" {
		t.Fatalf("promoted source = %q, want hit", src)
	}
	if string(got3) != string(got1) {
		t.Fatal("promoted response differs from original bytes")
	}
}

// TestServeStoreDisabledIdentical pins the byte-identity contract for the
// disabled path: with no store configured the server behaves exactly as
// before the store existed — same bytes, same headers, no provenance.
func TestServeStoreDisabledIdentical(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := encodeInstance(t, testInstance(0))
	resp1, got1 := postJSON(t, ts, "/v1/solve", body)
	resp2, got2 := postJSON(t, ts, "/v1/solve", body)
	if string(got1) != string(got2) {
		t.Fatal("hit differs from miss bytes")
	}
	if resp1.Header.Get(provenanceHeader) != "" || resp2.Header.Get(provenanceHeader) != "" {
		t.Fatal("storeless response carries a provenance header")
	}
	if src := resp2.Header.Get("X-Sapalloc-Cache"); src != "hit" {
		t.Fatalf("second response source = %q, want hit", src)
	}
}

// TestServeStoreDegradedNeverPersisted pins the degraded-never-persisted
// rule at the codec boundary: encodeStored must refuse degraded
// responses, so they can reach neither the LRU (Add call sites skip them)
// nor the disk. A healthy answer round-trips as its packed record, and
// values that are not packed answers, the older JSON-body format among
// them, fail to decode.
func TestServeStoreDegradedNeverPersisted(t *testing.T) {
	rec, err := appendPathAnswer(nil, "small/strip-pack", false, 7, 0,
		[]model.Placement{{Task: model.Task{ID: 3, Start: 0, End: 1, Demand: 1, Weight: 5}, Height: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := encodeStored(&cachedResponse{rec: rec, tasks: 7, degraded: true}); ok {
		t.Fatal("encodeStored accepted a degraded response")
	}
	raw, ok := encodeStored(&cachedResponse{rec: rec, tasks: 7})
	if !ok {
		t.Fatal("encodeStored refused a healthy response")
	}
	v, cost, err := decodeStored(raw)
	if err != nil {
		t.Fatalf("decodeStored: %v", err)
	}
	resp := v.(*cachedResponse)
	if !bytes.Equal(resp.rec, rec) || resp.tasks != 7 || resp.degraded || cost != 7 {
		t.Fatalf("codec round-trip mismatch: %+v cost=%d", resp, cost)
	}
	body, err := appendBody(nil, resp.rec)
	if err != nil {
		t.Fatal(err)
	}
	const wantBody = `{"kind":"path","weight":5,"winner":"small/strip-pack","scheduled":1,"tasks":7,"items":[{"task_id":3,"height":2}]}` + "\n"
	if string(body) != wantBody {
		t.Fatalf("decoded record renders %q, want %q", body, wantBody)
	}
	if _, _, err := decodeStored([]byte{1, 2}); err == nil {
		t.Fatal("decodeStored accepted a truncated record")
	}
	if _, _, err := decodeStored(oldStoredValue(7, []byte(wantBody))); err == nil {
		t.Fatal("decodeStored accepted a value in the JSON-body format")
	}
	if _, _, err := decodeStored(append(bytes.Clone(rec), 0)); err == nil {
		t.Fatal("decodeStored accepted a record with trailing bytes")
	}
}

// oldStoredValue is a store value in the format that held the response
// body: a 4-byte big-endian task count, then the body.
func oldStoredValue(tasks uint32, body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, tasks), body...)
}

// TestServeStoreOldRecord checks that a store value in the JSON-body
// format is answered as a miss: the solve re-runs, its answer replaces
// the value, and the next request is answered from the cache or the store
// with the bytes of the miss.
func TestServeStoreOldRecord(t *testing.T) {
	dir := t.TempDir()
	in := testInstance(0)
	body := encodeInstance(t, in)
	in.Normalize()
	key := store.Key(sapcache.KeyOf(in))

	st := testStore(t, dir)
	if err := st.Put(key, oldStoredValue(uint32(len(in.Tasks)), []byte(`{"kind":"path","weight":1,"winner":"path","scheduled":0,"tasks":9,"items":[]}`+"\n"))); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Store: st})
	resp1, got1 := postJSON(t, ts, "/v1/solve", body)
	if resp1.StatusCode != 200 || resp1.Header.Get("X-Sapalloc-Cache") != "miss" {
		t.Fatalf("old record: status %d, source %q, want a miss", resp1.StatusCode, resp1.Header.Get("X-Sapalloc-Cache"))
	}
	if obs.SolvesStarted.Value() == 0 {
		t.Fatal("the old record was answered without a solve")
	}
	raw, ok, err := st.Get(key)
	if err != nil || !ok {
		t.Fatalf("store lost the key: ok=%v err=%v", ok, err)
	}
	if _, _, err := decodeStored(raw); err != nil {
		t.Fatalf("the re-solve did not rewrite the record: %v", err)
	}
	resp2, got2 := postJSON(t, ts, "/v1/solve", body)
	if src := resp2.Header.Get("X-Sapalloc-Cache"); src != "hit" {
		t.Fatalf("second request source = %q, want hit", src)
	}
	if !bytes.Equal(got2, got1) {
		t.Fatalf("hit differs from the miss:\n%s\n%s", got1, got2)
	}
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted server answers from the rewritten record.
	st2 := testStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	ts2 := newTestServer(t, Config{Store: st2})
	resp3, got3 := postJSON(t, ts2, "/v1/solve", body)
	if src := resp3.Header.Get("X-Sapalloc-Cache"); src != "store" {
		t.Fatalf("restarted source = %q, want store", src)
	}
	if !bytes.Equal(got3, got1) {
		t.Fatalf("store answer differs from the miss:\n%s\n%s", got1, got3)
	}
}

// TestRetryAfterUnified pins that the queue-deadline 503 and the 429 shed
// compute Retry-After from the same drain-aware estimate: EWMA solve
// duration × queue occupancy / concurrency, floored at cfg.RetryAfter,
// capped at 60s.
func TestRetryAfterUnified(t *testing.T) {
	s := New(Config{Concurrency: 2, Queue: 2, RetryAfter: 2 * time.Second})

	// Before any solve completes, the floor is the whole hint.
	if got := s.retryAfterHint(); got != 2*time.Second {
		t.Fatalf("cold hint = %v, want the 2s floor", got)
	}

	// With a 10s EWMA and 3 occupied admission tokens over 2 slots, the
	// drain estimate 10s×3/2 = 15s wins over the floor.
	s.observeSolve(10 * time.Second)
	for i := 0; i < 3; i++ {
		s.queue <- struct{}{}
	}
	if got := s.retryAfterHint(); got != 15*time.Second {
		t.Fatalf("drain hint = %v, want 15s", got)
	}

	// Both refusal statuses carry the same header value.
	w429 := httptest.NewRecorder()
	s.writeSolveError(w429, errOverloaded, false)
	w503 := httptest.NewRecorder()
	s.writeSolveError(w503, errQueueTimeout, false)
	if w429.Code != 429 || w503.Code != 503 {
		t.Fatalf("statuses = %d/%d, want 429/503", w429.Code, w503.Code)
	}
	a, b := w429.Header().Get("Retry-After"), w503.Header().Get("Retry-After")
	if a != "15" || b != "15" {
		t.Fatalf("Retry-After 429=%q 503=%q, want both 15", a, b)
	}

	// The estimate is capped at 60s however backed up the queue looks.
	s.observeSolve(10 * time.Minute)
	s.observeSolve(10 * time.Minute)
	s.observeSolve(10 * time.Minute)
	s.observeSolve(10 * time.Minute)
	if got := s.retryAfterHint(); got != 60*time.Second {
		t.Fatalf("capped hint = %v, want 60s", got)
	}
}

// TestRetryAfterEWMA pins the smoothing: the first observation seeds the
// EWMA, later ones move it a quarter of the gap.
func TestRetryAfterEWMA(t *testing.T) {
	s := New(Config{})
	s.observeSolve(8 * time.Second)
	if got := time.Duration(s.solveNs.Load()); got != 8*time.Second {
		t.Fatalf("seed = %v, want 8s", got)
	}
	s.observeSolve(16 * time.Second)
	if got := time.Duration(s.solveNs.Load()); got != 10*time.Second {
		t.Fatalf("after second observation = %v, want 10s (8 + (16-8)/4)", got)
	}
}
