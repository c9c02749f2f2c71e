package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The tests in this file flip the process-global gates; none of them may
// call t.Parallel (the same rule faultinject's plan activation follows).

// clean resets both facilities to a known-off, empty state.
func clean(t *testing.T) {
	t.Helper()
	DisableMetrics()
	DisableTracing()
	Reset()
	t.Cleanup(func() {
		DisableMetrics()
		DisableTracing()
		Reset()
	})
}

func TestDisabledHooksAreInert(t *testing.T) {
	clean(t)
	SolvesStarted.Inc()
	SolvesStarted.Add(10)
	ServeQueueDepth.Set(42)
	SolveNs.Record(100)
	if v := SolvesStarted.Value(); v != 0 {
		t.Fatalf("disabled counter moved: %d", v)
	}
	if v := ServeQueueDepth.Value(); v != 0 {
		t.Fatalf("disabled gauge moved: %d", v)
	}
	if v := SolveNs.Count(); v != 0 {
		t.Fatalf("disabled histogram moved: %d", v)
	}
	ctx := context.Background()
	ctx2, end := StartSpan(ctx, "x")
	end()
	if ctx2 != ctx {
		t.Fatal("disabled StartSpan returned a derived context")
	}
	if n := SpanCount(); n != 0 {
		t.Fatalf("disabled tracer recorded %d spans", n)
	}
}

func TestCounterAndGauge(t *testing.T) {
	clean(t)
	EnableMetrics()
	SolvesStarted.Inc()
	SolvesStarted.Add(4)
	if v := SolvesStarted.Value(); v != 5 {
		t.Fatalf("counter = %d, want 5", v)
	}
	ServeQueueDepth.Set(917)
	if v := ServeQueueDepth.Value(); v != 917 {
		t.Fatalf("gauge = %d, want 917", v)
	}
	Reset()
	if SolvesStarted.Value() != 0 || ServeQueueDepth.Value() != 0 {
		t.Fatal("Reset left values behind")
	}
}

// TestHistogramBucketBoundaries pins the log-scale bucketing: bucket 0
// holds v ≤ 0, bucket i ≥ 1 holds exactly the values of bit length i,
// i.e. [2^(i-1), 2^i).
func TestHistogramBucketBoundaries(t *testing.T) {
	clean(t)
	EnableMetrics()
	h := SolveNs
	cases := []struct {
		v      int64
		bucket int
	}{
		{math.MinInt64, 0}, {-1, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11}, {1025, 11},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		before := h.Bucket(c.bucket)
		h.Record(c.v)
		if after := h.Bucket(c.bucket); after != before+1 {
			t.Errorf("Record(%d): bucket %d went %d -> %d, want +1", c.v, c.bucket, before, after)
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Errorf("count = %d, want %d", h.Count(), len(cases))
	}
	// Boundaries are consistent with BucketRange: each bucket's inclusive
	// lower bound maps back into that bucket, and lo-1 does not.
	for i := 1; i < NumBuckets-1; i++ {
		lo, hi := BucketRange(i)
		if bucketOf(lo) != i {
			t.Errorf("bucket %d: lower bound %d maps to bucket %d", i, lo, bucketOf(lo))
		}
		if bucketOf(lo-1) == i {
			t.Errorf("bucket %d: %d (below lo) still maps to it", i, lo-1)
		}
		if i < 62 && bucketOf(hi) != i+1 {
			t.Errorf("bucket %d: upper bound %d maps to bucket %d, want %d", i, hi, bucketOf(hi), i+1)
		}
	}
}

// TestCounterConcurrent hammers one counter and one histogram from many
// goroutines; under `go test -race` this doubles as the data-race probe for
// the registry's lock-free hot path.
func TestCounterConcurrent(t *testing.T) {
	clean(t)
	EnableMetrics()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				SegtreeOps.Inc()
				KnapsackCells.Add(3)
				SolveNs.Record(int64(i))
			}
		}()
	}
	wg.Wait()
	if v := SegtreeOps.Value(); v != goroutines*perG {
		t.Errorf("segtree_ops = %d, want %d", v, goroutines*perG)
	}
	if v := KnapsackCells.Value(); v != 3*goroutines*perG {
		t.Errorf("knapsack_dp_cells = %d, want %d", v, 3*goroutines*perG)
	}
	if v := SolveNs.Count(); v != goroutines*perG {
		t.Errorf("solve_ns count = %d, want %d", v, goroutines*perG)
	}
}

// TestTraceRingWraparound fills a 4-slot ring with 10 spans: the total
// keeps counting, the buffer retains the newest 4, and WriteTrace emits
// them oldest-first.
func TestTraceRingWraparound(t *testing.T) {
	clean(t)
	EnableTracing(4)
	for i := 0; i < 10; i++ {
		end := Span(spanName(i))
		end()
	}
	if n := SpanCount(); n != 10 {
		t.Fatalf("SpanCount = %d, want 10", n)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for i := 0; i < 6; i++ {
		if strings.Contains(out, spanName(i)) {
			t.Errorf("overwritten span %s still exported", spanName(i))
		}
	}
	last := -1
	for i := 6; i < 10; i++ {
		at := strings.Index(out, spanName(i))
		if at < 0 {
			t.Errorf("span %s missing from export", spanName(i))
			continue
		}
		if at < last {
			t.Errorf("span %s exported out of order", spanName(i))
		}
		last = at
	}
}

func spanName(i int) string { return "span-" + string(rune('A'+i)) }

// TestTraceGolden pins the exact trace_event serialisation against a golden
// file, using hand-recorded spans so timestamps are deterministic.
func TestTraceGolden(t *testing.T) {
	clean(t)
	EnableTracing(8)
	tracer.mu.Lock()
	gen := tracer.gen
	tracer.mu.Unlock()
	recordSpan(gen, "core/solve", 2, 0, 1500*time.Microsecond)
	recordSpan(gen, "core/partition", 2, 10*time.Microsecond, 35*time.Microsecond)
	recordSpan(gen, "core/arm/small", 3, 50*time.Microsecond, 400*time.Microsecond)
	recordSpan(gen, "core/arm/medium", 4, 50*time.Microsecond, 900*time.Microsecond)
	recordSpan(gen, "oracle/check-sap", 1, 1460*time.Microsecond, 30*time.Microsecond)
	var buf bytes.Buffer
	if err := WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate by writing the got output)", err)
	}
	if buf.String() != string(want) {
		t.Errorf("trace export differs from %s\n got:\n%s\nwant:\n%s", golden, buf.String(), want)
	}
	// The golden bytes must themselves be loadable trace JSON: an object
	// with a traceEvents array of complete events carrying the fields
	// chrome://tracing and Perfetto require.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatalf("golden file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 6 { // 1 metadata + 5 spans
		t.Fatalf("golden trace has %d events, want 6", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents[1:] {
		for _, key := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event %v missing required key %q", ev, key)
			}
		}
		if ev["ph"] != "X" {
			t.Errorf("event %v: ph = %v, want X", ev, ev["ph"])
		}
	}
}

// TestStartSpanTracks pins the track plumbing: a root span allocates a
// track its children inherit, and StartSpanTrack forks a fresh one.
func TestStartSpanTracks(t *testing.T) {
	clean(t)
	EnableTracing(16)
	ctx := context.Background()
	ctx, endRoot := StartSpan(ctx, "root")
	root := trackOf(ctx)
	if root == 0 {
		t.Fatal("root span did not allocate a track")
	}
	child, endChild := StartSpan(ctx, "child")
	if trackOf(child) != root {
		t.Errorf("child track %d, want parent's %d", trackOf(child), root)
	}
	forked, endForked := StartSpanTrack(ctx, "forked")
	if trackOf(forked) == root {
		t.Error("StartSpanTrack reused the parent track")
	}
	endChild()
	endForked()
	endRoot()
	if n := SpanCount(); n != 3 {
		t.Fatalf("SpanCount = %d, want 3", n)
	}
}

// TestStaleSpanEndDropped: a span end that survives into a new tracing
// epoch must not be misfiled into the fresh buffer.
func TestStaleSpanEndDropped(t *testing.T) {
	clean(t)
	EnableTracing(8)
	end := Span("stale")
	EnableTracing(8) // new epoch while the span is open
	end()
	if n := SpanCount(); n != 0 {
		t.Fatalf("stale span recorded into new epoch (count %d)", n)
	}
}

func TestDumpsAndSummary(t *testing.T) {
	clean(t)
	EnableMetrics()
	SolvesStarted.Inc()
	SolvesCompleted.Inc()
	TasksInput.Add(7)
	TasksAdmitted.Add(5)
	SolveNs.Record(1000)
	ServeQueueDepth.Set(850)

	var text bytes.Buffer
	if err := DumpText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"solves_started", "solve_ns", "serve_queue_depth", "count=1"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text dump missing %q:\n%s", want, text.String())
		}
	}

	var js bytes.Buffer
	if err := DumpJSON(&js); err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(js.Bytes(), &snap); err != nil {
		t.Fatalf("JSON dump does not parse: %v", err)
	}
	if snap.Counters["solves_started"] != 1 || snap.Counters["tasks_input"] != 7 {
		t.Errorf("JSON snapshot counters wrong: %+v", snap.Counters)
	}
	if snap.Histograms["solve_ns"].Count != 1 {
		t.Errorf("JSON snapshot histogram wrong: %+v", snap.Histograms["solve_ns"])
	}

	line := Summary()
	if !strings.Contains(line, "solves=1 (ok=1") || !strings.Contains(line, "tasks=5/7") {
		t.Errorf("summary line unexpected: %s", line)
	}
}

func BenchmarkCounterDisabled(b *testing.B) {
	DisableMetrics()
	for i := 0; i < b.N; i++ {
		SegtreeOps.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	EnableMetrics()
	defer func() { DisableMetrics(); Reset() }()
	for i := 0; i < b.N; i++ {
		SegtreeOps.Inc()
	}
}

func BenchmarkStartSpanDisabled(b *testing.B) {
	DisableTracing()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, end := StartSpan(ctx, "bench")
		end()
	}
}
