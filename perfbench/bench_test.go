package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"sapalloc/internal/core"
	"sapalloc/internal/gen"
)

// TestMain lets startServer re-execute the test binary as the server.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench server: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestTailRule(t *testing.T) {
	if got := requestsForTail(0.90); got != 100 {
		t.Fatalf("requestsForTail(0.90) = %d, want 100", got)
	}
	if minRequests != 100 {
		t.Fatalf("minRequests = %d, want 100", minRequests)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		n := requestsForTail(q)
		if !tailSupported(n, q) || tailSupported(n-1, q) {
			t.Fatalf("q=%v: tailSupported(%d) must hold and (%d) must not", q, n, n-1)
		}
		// With n distinct samples, at least minTail lie beyond the
		// interpolated percentile.
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		p, beyond := percentile(s, q), 0
		for _, v := range s {
			if v > p {
				beyond++
			}
		}
		if beyond < minTail {
			t.Fatalf("q=%v n=%d: %d samples beyond p=%v, want ≥ %d", q, n, beyond, p, minTail)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := percentile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
}

func TestPerRequestArithmetic(t *testing.T) {
	if got := perRequest(10, 4); got != 2.5 {
		t.Errorf("perRequest(10, 4) = %v", got)
	}
	if got := perRequest(10, 0); got != 0 {
		t.Errorf("perRequest(10, 0) = %v, want 0", got)
	}
	if got := histMean([2]int64{2, 100}, [2]int64{6, 500}); got != 100 {
		t.Errorf("histMean = %v, want 100", got)
	}
	if got := histMean([2]int64{2, 100}, [2]int64{2, 100}); got != 0 {
		t.Errorf("histMean with no samples = %v, want 0", got)
	}
	// Two rounds fold into one phase: only the deltas inside each round
	// count, not what happened between rounds.
	p := &phase{counters: map[string]int64{}, hists: map[string][2]int64{}}
	p.add(serverStats{CPUNs: 100, TotalAlloc: 1000, Counters: map[string]int64{"c": 1}, Hists: map[string][2]int64{"h": {1, 10}}},
		serverStats{CPUNs: 300, TotalAlloc: 1500, Counters: map[string]int64{"c": 4}, Hists: map[string][2]int64{"h": {3, 50}}})
	p.add(serverStats{CPUNs: 1000, TotalAlloc: 9000, Counters: map[string]int64{"c": 10}, Hists: map[string][2]int64{"h": {5, 90}}},
		serverStats{CPUNs: 1100, TotalAlloc: 9100, Counters: map[string]int64{"c": 12}, Hists: map[string][2]int64{"h": {6, 100}}})
	if p.cpuNs != 300 || p.alloc != 600 || p.counters["c"] != 5 || p.hists["h"] != [2]int64{3, 50} {
		t.Errorf("phase = cpu %d alloc %d c %d h %v", p.cpuNs, p.alloc, p.counters["c"], p.hists["h"])
	}
}

// TestCheckSolveRejects shows the output check catches a wrong weight and
// an infeasible allocation.
func TestCheckSolveRejects(t *testing.T) {
	in := gen.Random(gen.Config{Seed: 3, Edges: 6, Tasks: 12})
	res, err := core.SolveCtx(context.Background(), in, serveParams)
	if err != nil {
		t.Fatal(err)
	}
	doc := solveDoc{Kind: "path", Weight: res.Solution.Weight(), Scheduled: res.Solution.Len(),
		Tasks: len(in.Tasks), Items: renderItems(res.Solution)}
	if len(doc.Items) < 2 {
		t.Fatalf("want at least two scheduled tasks, got %d", len(doc.Items))
	}
	q := &solveReq{path: in}
	encodeDoc := func(d solveDoc) []byte {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := checkSolve(q, encodeDoc(doc)); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	heavy := doc
	heavy.Weight++
	if _, err := checkSolve(q, encodeDoc(heavy)); err == nil {
		t.Error("wrong weight accepted")
	}
	high := doc
	high.Items = append([]itemDoc(nil), doc.Items...)
	high.Items[0].Height = in.MaxCapacity()
	if _, err := checkSolve(q, encodeDoc(high)); err == nil {
		t.Error("allocation above capacity accepted")
	}
}

// TestTinyRuns runs every workload for a second with the checks on, in
// both modes.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	defer func(n int) { minRequests = n }(minRequests)
	minRequests = 8
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				w, err := newWorkload(name, 7, 2)
				if err != nil {
					t.Fatal(err)
				}
				defer w.close()
				b := &bench{workload: name, seed: 7, seconds: time.Second, trace: trace, clients: 2, workdir: t.TempDir()}
				res, prov, err := measure(b, w)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("attempted %d failed %d: %v", res.Attempted, res.Failed, prov.Failures)
				}
				want := len(endToEnd)
				if trace {
					want = len(layers)
				}
				if len(res.Metrics) != want {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), want)
				}
				for n, v := range res.Metrics {
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!trace && v.Value <= 0) {
						t.Errorf("metric %s = %v", n, v.Value)
					}
				}
			})
		}
	}
}
