package window

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sapalloc/internal/exact"
	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/saperr"
)

func randomWindowed(r *rand.Rand, m, n, maxSlack int) *Instance {
	in := &Instance{Capacity: make([]int64, m)}
	for e := range in.Capacity {
		in.Capacity[e] = 4 + r.Int63n(12)
	}
	for i := 0; i < n; i++ {
		length := 1 + r.Intn(m)
		rel := r.Intn(m - length + 1)
		dl := rel + length + r.Intn(maxSlack+1)
		if dl > m {
			dl = m
		}
		in.Tasks = append(in.Tasks, Task{
			ID: i, Release: rel, Deadline: dl, Length: length,
			Demand: 1 + r.Int63n(6), Weight: 1 + r.Int63n(30),
		})
	}
	return in
}

func TestValidateAndOffsets(t *testing.T) {
	in := &Instance{
		Capacity: []int64{4, 4, 4},
		Tasks:    []Task{{ID: 0, Release: 0, Deadline: 3, Length: 2, Demand: 2, Weight: 1}},
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("%v", err)
	}
	if in.Tasks[0].Offsets() != 2 {
		t.Errorf("offsets = %d, want 2", in.Tasks[0].Offsets())
	}
	for _, bad := range []struct {
		name string
		task Task
	}{
		{"window too small", Task{ID: 0, Release: 0, Deadline: 1, Length: 2, Demand: 1, Weight: 1}},
		// Release+Length overflows int64 and wraps below Deadline, so a
		// check that adds them accepts a negative offset count.
		{"length overflows the window end", Task{ID: 0, Release: 1, Deadline: 2, Length: math.MaxInt64, Demand: 1, Weight: 1}},
		{"deadline far below release", Task{ID: 0, Release: 1, Deadline: math.MinInt64, Length: 1, Demand: 1, Weight: 1}},
	} {
		in := &Instance{Capacity: []int64{4, 4, 4}, Tasks: []Task{bad.task}}
		if err := in.Validate(); err == nil {
			t.Errorf("%s: accepted with %d offsets", bad.name, bad.task.Offsets())
		}
	}
	doc := `{"kind":"window","capacity":[4,4,4],"tasks":[{"id":0,"release":1,"deadline":2,"length":9223372036854775807,"demand":1,"weight":1}]}`
	if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
		t.Errorf("ReadJSON accepted a length that overflows the window end")
	}
}

func TestValidCatchesViolations(t *testing.T) {
	in := &Instance{
		Capacity: []int64{4, 4, 4},
		Tasks: []Task{
			{ID: 0, Release: 0, Deadline: 3, Length: 2, Demand: 3, Weight: 1},
			{ID: 1, Release: 0, Deadline: 3, Length: 2, Demand: 3, Weight: 1},
		},
	}
	ok := &Solution{Items: []Placement{{Task: in.Tasks[0], Start: 0, Height: 0}}}
	if err := Valid(in, ok); err != nil {
		t.Fatalf("feasible rejected: %v", err)
	}
	outside := &Solution{Items: []Placement{{Task: in.Tasks[0], Start: 2, Height: 0}}}
	if err := Valid(in, outside); !errors.Is(err, ErrInfeasible) {
		t.Errorf("window violation not caught: %v", err)
	}
	tooHigh := &Solution{Items: []Placement{{Task: in.Tasks[0], Start: 0, Height: 2}}}
	if err := Valid(in, tooHigh); !errors.Is(err, ErrInfeasible) {
		t.Errorf("capacity violation not caught: %v", err)
	}
	collide := &Solution{Items: []Placement{
		{Task: in.Tasks[0], Start: 0, Height: 0},
		{Task: in.Tasks[1], Start: 1, Height: 1},
	}}
	if err := Valid(in, collide); !errors.Is(err, ErrInfeasible) {
		t.Errorf("overlap not caught: %v", err)
	}
	// Sliding apart in time makes both fit despite the vertical conflict.
	apart := &Solution{Items: []Placement{
		{Task: in.Tasks[0], Start: 0, Height: 0},
		{Task: in.Tasks[1], Start: 1, Height: 3},
	}}
	if err := Valid(in, apart); !errors.Is(err, ErrInfeasible) {
		t.Errorf("top-above-capacity not caught: %v", err)
	}
}

// With zero slack the windowed problem IS SAP: cross-check the two exact
// solvers.
func TestZeroSlackEqualsSAP(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		sapIn := gen.Random(gen.Config{
			Seed: int64(trial), Edges: 2 + r.Intn(4), Tasks: 1 + r.Intn(7),
			CapLo: 4, CapHi: 17, Class: gen.Mixed,
		})
		winIn := Fixed(sapIn)
		wsol, err := SolveExact(winIn, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := Valid(winIn, wsol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ssol, err := exact.SolveSAP(sapIn, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if wsol.Weight() != ssol.Weight() {
			t.Fatalf("trial %d: windowed %d != SAP %d", trial, wsol.Weight(), ssol.Weight())
		}
	}
}

// Brute-force cross-check on tiny instances with real slack.
func TestSolveExactMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		in := randomWindowed(r, 2+r.Intn(3), 1+r.Intn(4), 2)
		got, err := SolveExact(in, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := Valid(in, got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteForce(in)
		if got.Weight() != want {
			t.Fatalf("trial %d: exact %d != brute %d\n%+v", trial, got.Weight(), want, in)
		}
	}
}

// bruteForce enumerates subsets, offsets and integer heights.
func bruteForce(in *Instance) int64 {
	n := len(in.Tasks)
	var best int64
	var places []Placement
	var rec func(i int, w int64)
	rec = func(i int, w int64) {
		if i == n {
			if w > best && Valid(in, &Solution{Items: places}) == nil {
				best = w
			}
			return
		}
		rec(i+1, w) // skip
		t := in.Tasks[i]
		for start := t.Release; start+t.Length <= t.Deadline; start++ {
			maxH := int64(0)
			for e := start; e < start+t.Length; e++ {
				if in.Capacity[e] > maxH {
					maxH = in.Capacity[e]
				}
			}
			for h := int64(0); h+t.Demand <= maxH; h++ {
				places = append(places, Placement{Task: t, Start: start, Height: h})
				rec(i+1, w+t.Weight)
				places = places[:len(places)-1]
			}
		}
	}
	rec(0, 0)
	return best
}

// Slack monotonicity: widening windows never decreases the optimum.
func TestSlackMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 12; trial++ {
		in := randomWindowed(r, 4, 5, 0)
		prev := int64(-1)
		for _, slack := range []int{0, 1, 2} {
			wide := Widen(in, slack)
			sol, err := SolveExact(wide, Options{})
			if err != nil {
				t.Fatalf("trial %d slack %d: %v", trial, slack, err)
			}
			if sol.Weight() < prev {
				t.Fatalf("trial %d: slack %d optimum %d below smaller slack %d", trial, slack, sol.Weight(), prev)
			}
			prev = sol.Weight()
		}
	}
}

func TestGreedyFeasibleAndReasonable(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		in := randomWindowed(r, 3+r.Intn(5), 4+r.Intn(8), 3)
		g := Greedy(in)
		if err := Valid(in, g); err != nil {
			t.Fatalf("trial %d: greedy infeasible: %v", trial, err)
		}
		if len(in.Tasks) <= 6 {
			opt, err := SolveExact(in, Options{})
			if err != nil {
				t.Fatalf("%v", err)
			}
			if 3*g.Weight() < opt.Weight() {
				t.Errorf("trial %d: greedy %d below OPT/3 (%d)", trial, g.Weight(), opt.Weight())
			}
		}
	}
}

func TestSolveExactTooLargeAndBudget(t *testing.T) {
	in := &Instance{Capacity: []int64{100}}
	for i := 0; i < MaxTasks+1; i++ {
		in.Tasks = append(in.Tasks, Task{ID: i, Release: 0, Deadline: 1, Length: 1, Demand: 1, Weight: 1})
	}
	if _, err := SolveExact(in, Options{}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("want ErrTooLarge, got %v", err)
	}
	r := rand.New(rand.NewSource(5))
	big := randomWindowed(r, 6, 14, 3)
	sol, err := SolveExact(big, Options{MaxNodes: 10})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if err := Valid(big, sol); err != nil {
		t.Errorf("budget incumbent infeasible: %v", err)
	}
}

// The overlap table of the exact search is quadratic in the number of
// start offsets, so past exact.MaxChoices the instance is rejected even
// with few tasks; sapsolve then falls back to Greedy.
func TestSolveExactTooManyOffsets(t *testing.T) {
	in := &Instance{Capacity: make([]int64, exact.MaxChoices/2+1)}
	for e := range in.Capacity {
		in.Capacity[e] = 4
	}
	for i := 0; i < 2; i++ {
		in.Tasks = append(in.Tasks, Task{ID: i, Release: 0, Deadline: in.Edges(), Length: 1, Demand: 1, Weight: 1})
	}
	if _, err := SolveExact(in, Options{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("%d start offsets: want ErrTooLarge, got %v", 2*in.Edges(), err)
	}
	in.Tasks = in.Tasks[:1]
	sol, err := SolveExact(in, Options{})
	if err != nil || sol.Weight() != 1 {
		t.Fatalf("%d start offsets: weight %d, err %v", in.Edges(), sol.Weight(), err)
	}
}

// Regression: a negative MaxNodes used to pass straight through
// withDefaults, so the budget check tripped on node 1 and SolveExact
// returned the greedy incumbent with ErrBudget — reading like a completed
// bounded search. It must be rejected as invalid input instead.
func TestNegativeMaxNodesRejected(t *testing.T) {
	in := &Instance{
		Capacity: []int64{4},
		Tasks:    []Task{{ID: 0, Release: 0, Deadline: 1, Length: 1, Demand: 1, Weight: 5}},
	}
	_, err := SolveExact(in, Options{MaxNodes: -1})
	if !errors.Is(err, saperr.ErrInfeasibleInput) {
		t.Fatalf("negative MaxNodes: want typed input error, got %v", err)
	}
	if errors.Is(err, ErrBudget) {
		t.Fatalf("negative MaxNodes still reads as budget exhaustion")
	}
}

func TestSolveExactCtxCancellation(t *testing.T) {
	// The full search of this instance takes about 3.0 s on a 2-vCPU Xeon
	// VM (Go 1.24), 100 times the 30 ms deadline below, so the deadline
	// always cuts it short.
	r := rand.New(rand.NewSource(1))
	in := randomWindowed(r, 8, 26, 4)

	// A context cancelled before the search starts is rejected up front.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveExactCtx(pre, in, Options{}); !saperr.IsCancelled(err) {
		t.Fatalf("pre-cancelled context: want cancellation, got %v", err)
	}

	// A context cancelled mid-search stops within the masked cadence and
	// returns the feasible incumbent. The deadline is generous enough for
	// the solver to start but far below this instance's full search time.
	ctx, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	sol, err := SolveExactCtx(ctx, in, Options{})
	if !saperr.IsCancelled(err) {
		t.Fatalf("mid-search deadline: want cancellation, got %v", err)
	}
	if sol == nil {
		t.Fatal("cancelled solve dropped the incumbent")
	}
	if verr := Valid(in, sol); verr != nil {
		t.Fatalf("cancelled incumbent infeasible: %v", verr)
	}
}

func TestFixedConversion(t *testing.T) {
	sapIn := &model.Instance{
		Capacity: []int64{4, 4},
		Tasks:    []model.Task{{ID: 0, Start: 0, End: 2, Demand: 2, Weight: 3}},
	}
	w := Fixed(sapIn)
	if w.Tasks[0].Offsets() != 1 {
		t.Errorf("fixed conversion has %d offsets, want 1", w.Tasks[0].Offsets())
	}
	if err := w.Validate(); err != nil {
		t.Errorf("%v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := &Instance{
		Capacity: []int64{4, 4, 4},
		Tasks:    []Task{{ID: 0, Release: 0, Deadline: 3, Length: 2, Demand: 2, Weight: 7}},
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatalf("%v", err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(back.Tasks) != 1 || back.Tasks[0].Weight != 7 || back.Tasks[0].Offsets() != 2 {
		t.Errorf("round trip lost data: %+v", back.Tasks)
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"kind":"path"}`)); err == nil {
		t.Errorf("path doc accepted as window instance")
	}
	if _, err := ReadJSON(bytes.NewBufferString("{oops")); err == nil {
		t.Errorf("garbage accepted")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"kind":"window","capacity":[2],"tasks":[{"id":0,"release":0,"deadline":3,"length":2,"demand":1,"weight":1}]}`)); err == nil {
		t.Errorf("invalid window accepted")
	}
}
