package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"sapalloc/internal/gen"
	"sapalloc/internal/model"
)

func archipelagoInstance(seed int64) *model.Instance {
	return gen.Archipelago(gen.ArchipelagoConfig{
		Seed: seed, Islands: 4, IslandEdges: 5, GapEdges: 2,
		TasksPerIsland: 6, CapLo: 16, CapHi: 65, Class: gen.Mixed,
	})
}

func createSession(t *testing.T, ts *httptest.Server, in *model.Instance) (string, sessionResponseDoc) {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/session", encodeInstance(t, in))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: status %d: %s", resp.StatusCode, body)
	}
	var doc sessionResponseDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decode create response: %v", err)
	}
	if doc.SessionID == "" || doc.Kind != "session" {
		t.Fatalf("malformed create response: %+v", doc)
	}
	return doc.SessionID, doc
}

func postDelta(t *testing.T, ts *httptest.Server, id string, delta sessionDeltaDoc) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(delta)
	if err != nil {
		t.Fatal(err)
	}
	return postJSON(t, ts, "/v1/session/"+id+"/delta", raw)
}

func deleteSession(t *testing.T, ts *httptest.Server, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestServeSessionLifecycle drives the full session API: create with an
// initial task set, churn via deltas (checking the weight tracks fresh
// /v1/solve answers for the same task set), and delete.
func TestServeSessionLifecycle(t *testing.T) {
	ts := newTestServer(t, Config{})
	in := archipelagoInstance(81)
	id, doc := createSession(t, ts, in)
	if doc.Tasks != len(in.Tasks) || doc.Scheduled != len(doc.Items) {
		t.Fatalf("create accounting off: %+v", doc)
	}

	// The create solve must agree with the stateless endpoint.
	resp, solveBody := postJSON(t, ts, "/v1/solve", encodeInstance(t, in))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/solve: %d: %s", resp.StatusCode, solveBody)
	}
	var solveDoc solveResponseDoc
	if err := json.Unmarshal(solveBody, &solveDoc); err != nil {
		t.Fatal(err)
	}
	if solveDoc.Weight != doc.Weight {
		t.Fatalf("session weight %d != solve weight %d", doc.Weight, solveDoc.Weight)
	}

	// Churn one task: remove it, then re-add it. The archipelago decomposes,
	// so the deltas must take the incremental path and reuse shards.
	tk := in.Tasks[0]
	resp, body := postDelta(t, ts, id, sessionDeltaDoc{Remove: []int{tk.ID}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: %d: %s", resp.StatusCode, body)
	}
	var d1 sessionResponseDoc
	if err := json.Unmarshal(body, &d1); err != nil {
		t.Fatal(err)
	}
	if d1.Tasks != len(in.Tasks)-1 {
		t.Fatalf("task count after removal: %+v", d1)
	}
	if d1.Full || d1.ReusedShards == 0 || d1.ResolvedShards+d1.ReusedShards != d1.Shards {
		t.Fatalf("removal was not incremental: %+v", d1)
	}
	resp, body = postDelta(t, ts, id, sessionDeltaDoc{
		Add: []sessionTaskDoc{{ID: tk.ID, Start: tk.Start, End: tk.End, Demand: tk.Demand, Weight: tk.Weight}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-add delta: %d: %s", resp.StatusCode, body)
	}
	var d2 sessionResponseDoc
	if err := json.Unmarshal(body, &d2); err != nil {
		t.Fatal(err)
	}
	// Back to the original task set: the maintained allocation must match
	// the stateless solve of the same instance.
	if d2.Weight != solveDoc.Weight || d2.Tasks != len(in.Tasks) {
		t.Fatalf("after churn round trip: weight %d (want %d), tasks %d", d2.Weight, solveDoc.Weight, d2.Tasks)
	}

	if resp := deleteSession(t, ts, id); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if resp := deleteSession(t, ts, id); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %d", resp.StatusCode)
	}
	resp, _ = postDelta(t, ts, id, sessionDeltaDoc{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delta to deleted session: %d", resp.StatusCode)
	}
}

func TestServeSessionErrors(t *testing.T) {
	ts := newTestServer(t, Config{})

	// Unknown session.
	resp, _ := postDelta(t, ts, "deadbeefdeadbeef", sessionDeltaDoc{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: %d", resp.StatusCode)
	}

	// Malformed create bodies.
	resp, _ = postJSON(t, ts, "/v1/session", []byte(`{oops`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage create: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts, "/v1/session", []byte(`{"kind":"ring","edges":3,"capacity":[4,4,4],"tasks":[]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ring create: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts, "/v1/session", append(encodeInstance(t, testInstance(0)), "trailing"...))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create with bytes after the document: %d", resp.StatusCode)
	}

	// Invalid deltas are 400 and atomic.
	in := testInstance(0)
	id, created := createSession(t, ts, in)
	resp, _ = postDelta(t, ts, id, sessionDeltaDoc{Remove: []int{424242}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("remove of unknown task: %d", resp.StatusCode)
	}
	resp, _ = postDelta(t, ts, id, sessionDeltaDoc{Add: []sessionTaskDoc{{ID: 0, Start: 0, End: 1, Demand: 1, Weight: 1}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate add: %d", resp.StatusCode)
	}
	resp, body := postDelta(t, ts, id, sessionDeltaDoc{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty delta after failures: %d", resp.StatusCode)
	}
	var doc sessionResponseDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Weight != created.Weight || doc.Tasks != created.Tasks {
		t.Fatalf("failed deltas mutated the session: %+v vs created %+v", doc, created)
	}

	// Wrong method on the collection.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/session", nil)
	getResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/session: %d", getResp.StatusCode)
	}
}

func TestServeSessionAdmissionBound(t *testing.T) {
	ts := newTestServer(t, Config{MaxSessions: 2})
	in := testInstance(0)
	id1, _ := createSession(t, ts, in)
	_, _ = createSession(t, ts, in)
	resp, body := postJSON(t, ts, "/v1/session", encodeInstance(t, in))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow create: %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Deleting a session frees the slot.
	if resp := deleteSession(t, ts, id1); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if resp, body := postJSON(t, ts, "/v1/session", encodeInstance(t, in)); resp.StatusCode != http.StatusOK {
		t.Fatalf("create after delete: %d: %s", resp.StatusCode, body)
	}
}

func TestServeSessionDraining(t *testing.T) {
	obsServer := New(Config{})
	ts := httptest.NewServer(obsServer.Handler())
	t.Cleanup(ts.Close)
	in := testInstance(0)
	resp, body := postJSON(t, ts, "/v1/session", encodeInstance(t, in))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d: %s", resp.StatusCode, body)
	}
	var doc sessionResponseDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	obsServer.StartDrain()
	if resp, _ := postJSON(t, ts, "/v1/session", encodeInstance(t, in)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: %d", resp.StatusCode)
	}
	if resp, _ := postDelta(t, ts, doc.SessionID, sessionDeltaDoc{}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("delta while draining: %d", resp.StatusCode)
	}
	// Deletes still work while draining: they release resources.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+doc.SessionID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete while draining: %d", delResp.StatusCode)
	}
}

// TestServeSessionConcurrentDeltas hammers one session from many goroutines;
// per-session locking must serialize the deltas so every one succeeds and
// the final state equals the initial state (each worker removes and re-adds
// its own disjoint task).
func TestServeSessionConcurrentDeltas(t *testing.T) {
	ts := newTestServer(t, Config{})
	in := archipelagoInstance(82)
	id, created := createSession(t, ts, in)
	const rounds = 3
	workers := 6
	if workers > len(in.Tasks) {
		workers = len(in.Tasks)
	}
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(tk model.Task) {
			for i := 0; i < rounds; i++ {
				raw, _ := json.Marshal(sessionDeltaDoc{Remove: []int{tk.ID}})
				resp, body := postRaw(ts, id, raw)
				if resp != http.StatusOK {
					errc <- fmt.Errorf("remove %d: status %d: %s", tk.ID, resp, body)
					return
				}
				raw, _ = json.Marshal(sessionDeltaDoc{Add: []sessionTaskDoc{{
					ID: tk.ID, Start: tk.Start, End: tk.End, Demand: tk.Demand, Weight: tk.Weight,
				}}})
				resp, body = postRaw(ts, id, raw)
				if resp != http.StatusOK {
					errc <- fmt.Errorf("re-add %d: status %d: %s", tk.ID, resp, body)
					return
				}
			}
			errc <- nil
		}(in.Tasks[w])
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	resp, body := postDelta(t, ts, id, sessionDeltaDoc{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final empty delta: %d", resp.StatusCode)
	}
	var final sessionResponseDoc
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatal(err)
	}
	if final.Weight != created.Weight || final.Tasks != created.Tasks {
		t.Fatalf("concurrent churn drifted: final %+v vs created weight=%d tasks=%d", final, created.Weight, created.Tasks)
	}
}

// postRaw is postDelta without *testing.T, for use inside goroutines.
func postRaw(ts *httptest.Server, id string, raw []byte) (int, []byte) {
	resp, err := http.Post(ts.URL+"/v1/session/"+id+"/delta", "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}
