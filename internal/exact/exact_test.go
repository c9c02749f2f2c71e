package exact

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/saperr"
	"sapalloc/internal/scratch"
)

func randomInstance(r *rand.Rand, m, n int, maxCap, maxDemand int64) *model.Instance {
	in := &model.Instance{Capacity: make([]int64, m)}
	for e := range in.Capacity {
		in.Capacity[e] = 1 + r.Int63n(maxCap)
	}
	for i := 0; i < n; i++ {
		s := r.Intn(m)
		e := s + 1 + r.Intn(m-s)
		in.Tasks = append(in.Tasks, model.Task{
			ID: i, Start: s, End: e,
			Demand: 1 + r.Int63n(maxDemand),
			Weight: 1 + r.Int63n(30),
		})
	}
	return in
}

// bruteForceSAP enumerates subsets and integer height assignments.
func bruteForceSAP(in *model.Instance) int64 {
	n := len(in.Tasks)
	var best int64
	var heights []int64
	var tasks []model.Task
	var tryHeights func(i int) bool
	tryHeights = func(i int) bool {
		if i == len(tasks) {
			return model.ValidSAP(in, model.NewSolution(tasks, heights)) == nil
		}
		maxH := in.Bottleneck(tasks[i]) - tasks[i].Demand
		for h := int64(0); h <= maxH; h++ {
			heights[i] = h
			// Early conflict check against previous tasks for speed.
			ok := true
			for j := 0; j < i; j++ {
				if tasks[i].Overlaps(tasks[j]) &&
					h < heights[j]+tasks[j].Demand && heights[j] < h+tasks[i].Demand {
					ok = false
					break
				}
			}
			if ok && tryHeights(i+1) {
				return true
			}
		}
		return false
	}
	for mask := 0; mask < 1<<n; mask++ {
		tasks = tasks[:0]
		var w int64
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				tasks = append(tasks, in.Tasks[j])
				w += in.Tasks[j].Weight
			}
		}
		if w <= best {
			continue
		}
		heights = make([]int64, len(tasks))
		if tryHeights(0) {
			best = w
		}
	}
	return best
}

func TestSolveSAPMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 50; trial++ {
		in := randomInstance(r, 2+r.Intn(4), 1+r.Intn(7), 6, 4)
		sol, err := SolveSAP(in, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := model.ValidSAP(in, sol); err != nil {
			t.Fatalf("trial %d: infeasible exact solution: %v", trial, err)
		}
		want := bruteForceSAP(in)
		if got := sol.Weight(); got != want {
			t.Fatalf("trial %d: SolveSAP = %d, brute force = %d\ninstance: %+v", trial, got, want, in)
		}
	}
}

func TestSolveSAPFig1a(t *testing.T) {
	// Fig 1a gap instance: SAP optimum is 1 (only one of the two tasks).
	in := &model.Instance{
		Capacity: []int64{1, 2, 1},
		Tasks: []model.Task{
			{ID: 0, Start: 0, End: 2, Demand: 1, Weight: 1},
			{ID: 1, Start: 1, End: 3, Demand: 1, Weight: 1},
		},
	}
	sol, err := SolveSAP(in, Options{})
	if err != nil {
		t.Fatalf("SolveSAP: %v", err)
	}
	if sol.Weight() != 1 {
		t.Errorf("SAP OPT = %d, want 1", sol.Weight())
	}
	ufpp, err := SolveUFPP(in, Options{})
	if err != nil {
		t.Fatalf("SolveUFPP: %v", err)
	}
	if model.WeightOf(ufpp) != 2 {
		t.Errorf("UFPP OPT = %d, want 2", model.WeightOf(ufpp))
	}
}

func TestSolveSAPEmptyAndSingle(t *testing.T) {
	in := &model.Instance{Capacity: []int64{5}}
	sol, err := SolveSAP(in, Options{})
	if err != nil || sol.Len() != 0 {
		t.Errorf("empty: %v %v", sol, err)
	}
	in.Tasks = []model.Task{{ID: 0, Start: 0, End: 1, Demand: 9, Weight: 7}}
	sol, err = SolveSAP(in, Options{})
	if err != nil || sol.Len() != 0 {
		t.Errorf("oversized task scheduled: %+v %v", sol.Items, err)
	}
	in.Tasks[0].Demand = 5
	sol, err = SolveSAP(in, Options{})
	if err != nil || sol.Weight() != 7 {
		t.Errorf("single fitting task: weight %d, err %v", sol.Weight(), err)
	}
}

func TestSolveSAPTooLarge(t *testing.T) {
	in := &model.Instance{Capacity: []int64{1000}}
	for i := 0; i < MaxTasks+1; i++ {
		in.Tasks = append(in.Tasks, model.Task{ID: i, Start: 0, End: 1, Demand: 1, Weight: 1})
	}
	if _, err := SolveSAP(in, Options{}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("want ErrTooLarge, got %v", err)
	}
	if _, err := SolveUFPP(in, Options{}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("UFPP: want ErrTooLarge, got %v", err)
	}
}

func TestSolveSAPBudget(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	in := randomInstance(r, 5, 14, 20, 6)
	sol, err := SolveSAP(in, Options{MaxNodes: 10})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	// Incumbent must still be feasible (greedy seed).
	if err := model.ValidSAP(in, sol); err != nil {
		t.Errorf("budget incumbent infeasible: %v", err)
	}
}

// A search adds its node count to exact_bb_nodes once, when it ends: a
// path search cut at MaxNodes 1000 ran exactly 1001 nodes, the last one the
// node that found the budget spent.
func TestSolveSAPCountsNodes(t *testing.T) {
	obs.EnableMetrics()
	defer obs.DisableMetrics()
	in := gen.Random(gen.Config{Seed: 1, Edges: 10, Tasks: 20, Class: gen.Medium})
	before := obs.ExactBBNodes.Value()
	if _, err := SolveSAP(in, Options{MaxNodes: 1000}); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if got := obs.ExactBBNodes.Value() - before; got != 1001 {
		t.Errorf("exact_bb_nodes grew by %d, want 1001", got)
	}
}

// The twins of TestSolveSAPCountsNodes for items with several choices: a
// ring task has two orientations and a windowed task one choice per start
// offset. A search cut at MaxNodes 1000 must stop at the node that found
// the budget spent, without trying a sibling choice of any branch above.
func TestSolveRingSAPCountsNodes(t *testing.T) {
	obs.EnableMetrics()
	defer obs.DisableMetrics()
	for seed := int64(1); seed <= 5; seed++ {
		before := obs.ExactBBNodes.Value()
		if _, err := SolveRingSAP(gen.Ring(seed, 16, 30, 8, 33), Options{MaxNodes: 1000}); !errors.Is(err, ErrBudget) {
			t.Fatalf("gen.Ring(%d, 16, 30, 8, 33): want ErrBudget, got %v", seed, err)
		}
		if got := obs.ExactBBNodes.Value() - before; got != 1001 {
			t.Errorf("gen.Ring(%d, 16, 30, 8, 33): exact_bb_nodes grew by %d, want 1001", seed, got)
		}
	}
}

func TestSolveChoicesCountsNodes(t *testing.T) {
	obs.EnableMetrics()
	defer obs.DisableMetrics()
	for seed := int64(1); seed <= 5; seed++ {
		in := gen.Random(gen.Config{Seed: seed, Edges: 10, Tasks: 20, Class: gen.Medium})
		// Each task may also start one or two edges further right.
		alts := make([][]model.Task, len(in.Tasks))
		for i, task := range in.Tasks {
			for k := 0; k < 3 && task.End+k <= in.Edges(); k++ {
				shifted := task
				shifted.Start += k
				shifted.End += k
				alts[i] = append(alts[i], shifted)
			}
		}
		before := obs.ExactBBNodes.Value()
		if _, err := SolveChoicesCtx(context.Background(), in.Capacity, alts, Options{MaxNodes: 1000}); !errors.Is(err, ErrBudget) {
			t.Fatalf("seed %d: want ErrBudget, got %v", seed, err)
		}
		if got := obs.ExactBBNodes.Value() - before; got != 1001 {
			t.Errorf("seed %d: exact_bb_nodes grew by %d, want 1001", seed, got)
		}
	}
}

// Options.Deadline stops a search that the default node budget would let
// run for seconds. The incumbent comes back feasible, with a cancellation
// error that carries the deadline as its cause.
func TestSolveDeadline(t *testing.T) {
	const deadline = 5 * time.Millisecond
	checkErr := func(name string, err error, elapsed time.Duration) {
		t.Helper()
		if !saperr.IsCancelled(err) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: want a cancellation caused by the deadline, got %v", name, err)
		}
		if elapsed > time.Second {
			t.Errorf("%s: returned after %v under a %v deadline", name, elapsed, deadline)
		}
	}

	in := gen.Random(gen.Config{Seed: 1, Edges: 10, Tasks: 20, Class: gen.Medium})
	start := time.Now()
	sol, err := SolveSAP(in, Options{Deadline: deadline})
	checkErr("SolveSAP", err, time.Since(start))
	if err := model.ValidSAP(in, sol); err != nil || len(sol.Items) == 0 {
		t.Errorf("SolveSAP: incumbent %v infeasible or empty: %v", sol, err)
	}

	ring := gen.Ring(1, 16, 20, 16, 64)
	start = time.Now()
	rsol, err := SolveRingSAP(ring, Options{Deadline: deadline})
	checkErr("SolveRingSAP", err, time.Since(start))
	if err := model.ValidRingSAP(ring, rsol); err != nil || len(rsol.Items) == 0 {
		t.Errorf("SolveRingSAP: incumbent %v infeasible or empty: %v", rsol, err)
	}
}

func TestSolveUFPPMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(r, 2+r.Intn(5), 1+r.Intn(9), 10, 6)
		got, err := SolveUFPP(in, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := model.ValidUFPP(in, got); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
		var best int64
		n := len(in.Tasks)
		for mask := 0; mask < 1<<n; mask++ {
			var tasks []model.Task
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					tasks = append(tasks, in.Tasks[j])
				}
			}
			if model.ValidUFPP(in, tasks) == nil {
				if w := model.WeightOf(tasks); w > best {
					best = w
				}
			}
		}
		if model.WeightOf(got) != best {
			t.Fatalf("trial %d: SolveUFPP = %d, brute = %d", trial, model.WeightOf(got), best)
		}
	}
}

// SAP optimum is never above UFPP optimum; equality on non-conflicting
// instances.
func TestSAPLEQUFPP(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(r, 2+r.Intn(4), 1+r.Intn(8), 8, 5)
		sap, err := SolveSAP(in, Options{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		ufpp, err := SolveUFPP(in, Options{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		if sap.Weight() > model.WeightOf(ufpp) {
			t.Fatalf("trial %d: SAP %d > UFPP %d", trial, sap.Weight(), model.WeightOf(ufpp))
		}
	}
}

func TestSolveRingSAPSmall(t *testing.T) {
	ring := &model.RingInstance{
		Capacity: []int64{4, 4, 4, 4},
		Tasks: []model.RingTask{
			{ID: 0, Start: 0, End: 2, Demand: 4, Weight: 5},
			{ID: 1, Start: 2, End: 0, Demand: 4, Weight: 5},
			{ID: 2, Start: 1, End: 3, Demand: 4, Weight: 3},
		},
	}
	sol, err := SolveRingSAP(ring, Options{})
	if err != nil {
		t.Fatalf("SolveRingSAP: %v", err)
	}
	if err := model.ValidRingSAP(ring, sol); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	// Tasks 0 (cw: edges 0,1) and 1 (cw: edges 2,3) fill the whole ring at
	// full capacity; task 2 must be excluded. Weight 10.
	if sol.Weight() != 10 {
		t.Errorf("ring OPT = %d, want 10", sol.Weight())
	}
}

func TestSolveRingSAPOrientationMatters(t *testing.T) {
	// A task whose clockwise arc is blocked but counter-clockwise arc fits.
	ring := &model.RingInstance{
		Capacity: []int64{1, 10, 10, 10},
		Tasks: []model.RingTask{
			{ID: 0, Start: 0, End: 1, Demand: 5, Weight: 9}, // cw uses edge 0 (cap 1): must go ccw
		},
	}
	sol, err := SolveRingSAP(ring, Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if sol.Weight() != 9 {
		t.Fatalf("ring OPT = %d, want 9", sol.Weight())
	}
	if sol.Items[0].Orientation != model.CounterClockwise {
		t.Errorf("expected counter-clockwise routing")
	}
}

func TestSolveRingSAPTooLarge(t *testing.T) {
	ring := &model.RingInstance{Capacity: []int64{5, 5, 5}}
	for i := 0; i < MaxTasks+1; i++ {
		ring.Tasks = append(ring.Tasks, model.RingTask{ID: i, Start: 0, End: 1, Demand: 1, Weight: 1})
	}
	if _, err := SolveRingSAP(ring, Options{}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("want ErrTooLarge, got %v", err)
	}
}

// ringPerMask is the orientation enumeration, a test-only reference: one
// search per assignment of orientations, each item restricted to the
// single arc its mask bit picks. It returns the best weight over all 2^n
// assignments.
func ringPerMask(t *testing.T, r *model.RingInstance) int64 {
	a := scratch.Get()
	defer scratch.Put(a)
	items, choices := ringChoices(r, a)
	var best int64
	for mask := 0; mask < 1<<len(items); mask++ {
		fixed := make([]item, len(items))
		for i, it := range items {
			c := it.first + mask>>i&1
			fixed[i] = item{demand: it.demand, weight: it.weight, first: c, end: c + 1}
		}
		s := new(searcher)
		s.init(context.Background(), fixed, choices, 0, a)
		s.run()
		if err := s.err(); err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		best = max(best, s.bestWeight)
	}
	return best
}

// One search branching over both orientations must find the best optimum
// of the 2^n single-orientation searches.
func TestSolveRingSAPMatchesPerMask(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		edges, tasks := 3+int(seed%4), 1+int(seed%7)
		ring := gen.Ring(seed, edges, tasks, 8, 33)
		sol, err := SolveRingSAP(ring, Options{})
		if err != nil {
			t.Fatalf("gen.Ring(%d, %d, %d, 8, 33): %v", seed, edges, tasks, err)
		}
		if err := model.ValidRingSAP(ring, sol); err != nil {
			t.Fatalf("gen.Ring(%d, %d, %d, 8, 33): %v", seed, edges, tasks, err)
		}
		if want := ringPerMask(t, ring); sol.Weight() != want {
			t.Fatalf("gen.Ring(%d, %d, %d, 8, 33): weight %d, per-mask best %d", seed, edges, tasks, sol.Weight(), want)
		}
	}
}

func TestSolveUFPPPathDPMatchesBranchBound(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(r, 2+r.Intn(6), 1+r.Intn(10), 12, 6)
		dp, err := SolveUFPPPathDP(in, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := model.ValidUFPP(in, dp); err != nil {
			t.Fatalf("trial %d: DP infeasible: %v", trial, err)
		}
		bb, err := SolveUFPP(in, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if model.WeightOf(dp) != model.WeightOf(bb) {
			t.Fatalf("trial %d: DP %d != B&B %d", trial, model.WeightOf(dp), model.WeightOf(bb))
		}
	}
}

func TestSolveUFPPPathDPDroppingCapacity(t *testing.T) {
	// Capacity drops after the first edge: a crossing pair feasible on edge
	// 0 overloads edge 1; the DP must reject it.
	in := &model.Instance{
		Capacity: []int64{10, 4},
		Tasks: []model.Task{
			{ID: 0, Start: 0, End: 2, Demand: 3, Weight: 5},
			{ID: 1, Start: 0, End: 2, Demand: 3, Weight: 5},
		},
	}
	dp, err := SolveUFPPPathDP(in, 0)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if model.WeightOf(dp) != 5 {
		t.Errorf("weight = %d, want 5 (only one task fits edge 1)", model.WeightOf(dp))
	}
}

func TestSolveUFPPPathDPStateCap(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	in := randomInstance(r, 4, 18, 1000, 2)
	if _, err := SolveUFPPPathDP(in, 3); !errors.Is(err, ErrStateSpace) {
		t.Errorf("want ErrStateSpace, got %v", err)
	}
}

func TestSolveUFPPPathDPEmptyAndTooLarge(t *testing.T) {
	in := &model.Instance{Capacity: []int64{4}}
	if out, err := SolveUFPPPathDP(in, 0); err != nil || out != nil {
		t.Errorf("empty: %v %v", out, err)
	}
	big := &model.Instance{Capacity: []int64{1000}}
	for i := 0; i < 65; i++ {
		big.Tasks = append(big.Tasks, model.Task{ID: i, Start: 0, End: 1, Demand: 1, Weight: 1})
	}
	if _, err := SolveUFPPPathDP(big, 0); !errors.Is(err, ErrTooLarge) {
		t.Errorf("want ErrTooLarge, got %v", err)
	}
}
