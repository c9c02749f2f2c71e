package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"testing"

	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/scratch"
)

// memTraceBody is a hot-repeat sized request body: a 400-task MemTrace
// instance on 64 slots.
func memTraceBody(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gen.MemTrace(gen.MemTraceConfig{Seed: 1, Slots: 64, Objects: 400}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAllocsIntake pins the allocation count of a /v1/solve intake on the
// 400-task MemTrace body: decode, validate, sort into normal form, hash the
// key. Only the decoded capacity and task slices and the Instance are
// fresh memory; the sort, the duplicate-ID check and the key's encoding
// run in pooled buffers.
func TestAllocsIntake(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	body := memTraceBody(t)
	const budget = 3
	got := testing.AllocsPerRun(50, func() {
		if _, err := decodeSolve(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("intake/400tasks: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("intake/400tasks: %.1f allocs/op exceeds budget %d", got, budget)
	}
}

// bodyReader is a request body that converts to io.ReadCloser without an
// allocation, so the budget below counts the handler, not the harness.
type bodyReader struct{ *bytes.Reader }

func (bodyReader) Close() error { return nil }

// headerWriter is a ResponseWriter that keeps its header map across
// requests and discards the body.
type headerWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *headerWriter) Header() http.Header  { return w.h }
func (w *headerWriter) WriteHeader(code int) { w.code = code }
func (w *headerWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// TestAllocsCacheHit pins the allocation count of one cache-hit /v1/solve
// of the 400-task MemTrace body through Server.Handler(): routing, the
// pooled body read, the intake above, the LRU lookup and the response
// headers.
func TestAllocsCacheHit(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	body := memTraceBody(t)
	h := New(Config{}).Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", nil)
	rd := bytes.NewReader(body)
	w := &headerWriter{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		req.Body, req.ContentLength = bodyReader{rd}, int64(len(body))
		w.code, w.n = http.StatusOK, 0
		h.ServeHTTP(w, req)
	}
	serve() // the miss that fills the cache
	if w.code != http.StatusOK || w.h.Get("X-Sapalloc-Cache") != "miss" {
		t.Fatalf("first request: status %d, source %q", w.code, w.h.Get("X-Sapalloc-Cache"))
	}
	const budget = 10
	got := testing.AllocsPerRun(50, serve)
	if w.code != http.StatusOK || w.h.Get("X-Sapalloc-Cache") != "hit" {
		t.Fatalf("repeat request: status %d, source %q", w.code, w.h.Get("X-Sapalloc-Cache"))
	}
	t.Logf("cache hit/400tasks: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("cache hit/400tasks: %.1f allocs/op exceeds budget %d", got, budget)
	}
}

// TestServeBodyPoisoning is the lifetime rule of pooled bodies: nothing
// decoded from a body may refer into its buffer. The decoded instances and
// their keys must survive the buffer being overwritten once decoding is
// done, and so must every response, session deltas included, when test
// poisoning makes the server overwrite each buffer it returns to the pool.
func TestServeBodyPoisoning(t *testing.T) {
	poison := func(b []byte) {
		for i := range b {
			b[i] = 0xA5
		}
	}
	pathBody := memTraceBody(t)
	var ringBuf bytes.Buffer
	if err := gen.Ring(5, 16, 16, 64, 257).WriteJSON(&ringBuf); err != nil {
		t.Fatal(err)
	}
	for _, src := range [][]byte{pathBody, ringBuf.Bytes()} {
		want, err := decodeSolve(src)
		if err != nil {
			t.Fatal(err)
		}
		buf := bytes.Clone(src)
		got, err := decodeSolve(buf)
		if err != nil {
			t.Fatal(err)
		}
		poison(buf)
		if !reflect.DeepEqual(got, want) {
			t.Fatal("decoded instance changed when its body was overwritten")
		}
	}
	buf := bytes.Clone(pathBody)
	in, err := model.DecodeInstanceJSON(buf)
	if err != nil {
		t.Fatal(err)
	}
	poison(buf)
	if want, _ := model.DecodeInstanceJSON(pathBody); !reflect.DeepEqual(in, want) {
		t.Fatal("session instance changed when its body was overwritten")
	}

	// End to end: the same requests with and without poisoned buffers
	// answer the same bytes.
	arch := encodeInstance(t, archipelagoInstance(11))
	run := func() [][]byte {
		ts := newTestServer(t, Config{})
		var out [][]byte
		for _, b := range [][]byte{pathBody, pathBody, ringBuf.Bytes(), arch} {
			resp, got := postJSON(t, ts, "/v1/solve", b)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("solve: status %d, body %s", resp.StatusCode, got)
			}
			out = append(out, got)
		}
		id, _ := createSession(t, ts, archipelagoInstance(12))
		for _, d := range []sessionDeltaDoc{{Remove: []int{0, 1}}, {Add: []sessionTaskDoc{{ID: 1000, Start: 0, End: 2, Demand: 1, Weight: 5}}}} {
			resp, got := postDelta(t, ts, id, d)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("delta: status %d, body %s", resp.StatusCode, got)
			}
			out = append(out, regexp.MustCompile(`"session_id":"[0-9a-f]+"`).ReplaceAll(got, nil))
		}
		return out
	}
	clean := run()
	scratch.SetPoison(true)
	defer scratch.SetPoison(false)
	poisoned := run()
	for i := range clean {
		if !bytes.Equal(clean[i], poisoned[i]) {
			t.Errorf("response %d differs when bodies are poisoned after decode:\n%s\nvs\n%s", i, clean[i], poisoned[i])
		}
	}
}
