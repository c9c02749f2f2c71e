package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sapalloc/internal/model"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

func TestSolveTextbook(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4; 2y ≤ 12; 3x + 2y ≤ 18; x,y ≥ 0 (unbounded above).
	// Classic optimum: x=2, y=6, obj=36.
	p := &Problem{
		A: [][]float64{{1, 0}, {0, 2}, {3, 2}},
		B: []float64{4, 12, 18},
		C: []float64{3, 5},
		U: []float64{math.Inf(1), math.Inf(1)},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEq(s.Objective, 36, 1e-9) {
		t.Errorf("objective = %g, want 36", s.Objective)
	}
	if !almostEq(s.X[0], 2, 1e-9) || !almostEq(s.X[1], 6, 1e-9) {
		t.Errorf("x = %v, want [2 6]", s.X)
	}
	if err := VerifyFeasible(p, s.X, 1e-9); err != nil {
		t.Errorf("solution infeasible: %v", err)
	}
}

func TestSolveWithUpperBounds(t *testing.T) {
	// max x + y with x+y ≤ 10, x ≤ 3 (var bound), y ≤ 4 (var bound) → 7.
	p := &Problem{
		A: [][]float64{{1, 1}},
		B: []float64{10},
		C: []float64{1, 1},
		U: []float64{3, 4},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEq(s.Objective, 7, 1e-9) {
		t.Errorf("objective = %g, want 7", s.Objective)
	}
}

func TestSolveBindingRow(t *testing.T) {
	// max 2x + y with x + y ≤ 1, x,y ∈ [0,1] → x=1, obj=2.
	p := &Problem{
		A: [][]float64{{1, 1}},
		B: []float64{1},
		C: []float64{2, 1},
		U: []float64{1, 1},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEq(s.Objective, 2, 1e-9) {
		t.Errorf("objective = %g, want 2", s.Objective)
	}
}

func TestSolveZeroObjective(t *testing.T) {
	p := &Problem{
		A: [][]float64{{1}},
		B: []float64{5},
		C: []float64{0},
		U: []float64{1},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if s.Objective != 0 {
		t.Errorf("objective = %g, want 0", s.Objective)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// max x with -x ≤ 1, x unbounded above.
	p := &Problem{
		A: [][]float64{{-1}},
		B: []float64{1},
		C: []float64{1},
		U: []float64{math.Inf(1)},
	}
	if _, err := Solve(p); !errors.Is(err, ErrUnbounded) {
		t.Errorf("want ErrUnbounded, got %v", err)
	}
}

func TestSolveMalformed(t *testing.T) {
	cases := []*Problem{
		{A: [][]float64{{1}}, B: []float64{1, 2}, C: []float64{1}, U: []float64{1}},
		{A: [][]float64{{1}}, B: []float64{1}, C: []float64{1, 2}, U: []float64{1, 1}},
		{A: [][]float64{{1, 2}}, B: []float64{1}, C: []float64{1}, U: []float64{1}},
		{A: [][]float64{{1}}, B: []float64{-1}, C: []float64{1}, U: []float64{1}},
		{A: [][]float64{{1}}, B: []float64{1}, C: []float64{1}, U: []float64{-1}},
	}
	for i, p := range cases {
		if _, err := Solve(p); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: want ErrMalformed, got %v", i, err)
		}
	}
}

func TestSolveNoConstraints(t *testing.T) {
	// Only variable bounds: max 4x + y, x,y ∈ [0,1] → 5 via bound flips.
	p := &Problem{A: nil, B: nil, C: []float64{4, 1}, U: []float64{1, 1}}
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEq(s.Objective, 5, 1e-9) {
		t.Errorf("objective = %g, want 5", s.Objective)
	}
}

func TestSolveDegenerate(t *testing.T) {
	// A classically degenerate LP (multiple constraints tight at origin).
	p := &Problem{
		A: [][]float64{
			{0.5, -5.5, -2.5, 9},
			{0.5, -1.5, -0.5, 1},
			{1, 0, 0, 0},
		},
		B: []float64{0, 0, 1},
		C: []float64{10, -57, -9, -24},
		U: []float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve on Beale-style degenerate LP: %v", err)
	}
	if !almostEq(s.Objective, 1, 1e-7) {
		t.Errorf("objective = %g, want 1", s.Objective)
	}
}

// TestRandomPackingOptimality certifies optimality on random packing LPs via
// the independent dual bound: primal objective must equal DualBound(y*).
func TestRandomPackingOptimality(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 120; trial++ {
		m := 1 + r.Intn(6)
		n := 1 + r.Intn(10)
		p := &Problem{A: make([][]float64, m), B: make([]float64, m), C: make([]float64, n), U: make([]float64, n)}
		for i := 0; i < m; i++ {
			p.A[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				if r.Intn(2) == 0 {
					p.A[i][j] = float64(1 + r.Intn(9))
				}
			}
			p.B[i] = float64(1 + r.Intn(30))
		}
		for j := 0; j < n; j++ {
			p.C[j] = float64(r.Intn(20))
			p.U[j] = 1
		}
		s, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := VerifyFeasible(p, s.X, 1e-7); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bound := DualBound(p, s.Dual)
		if s.Objective > bound+1e-6*(1+bound) {
			t.Fatalf("trial %d: primal %g exceeds dual bound %g", trial, s.Objective, bound)
		}
		if !almostEq(s.Objective, bound, 1e-6) {
			t.Fatalf("trial %d: duality gap: primal %g, dual %g", trial, s.Objective, bound)
		}
	}
}

func TestUFPPRelaxation(t *testing.T) {
	in := &model.Instance{
		Capacity: []int64{4, 4},
		Tasks: []model.Task{
			{ID: 0, Start: 0, End: 2, Demand: 4, Weight: 10},
			{ID: 1, Start: 0, End: 1, Demand: 4, Weight: 6},
			{ID: 2, Start: 1, End: 2, Demand: 4, Weight: 6},
		},
	}
	x, opt, err := UFPPFractional(in)
	if err != nil {
		t.Fatalf("UFPPFractional: %v", err)
	}
	// Fractional optimum: either task 0 fully (10) or tasks 1+2 (12); LP can
	// also mix. 12 is optimal (x1=x2=1).
	if !almostEq(opt, 12, 1e-7) {
		t.Errorf("LP opt = %g, want 12", opt)
	}
	if err := VerifyFeasible(UFPPRelaxation(in), x, 1e-7); err != nil {
		t.Errorf("infeasible LP solution: %v", err)
	}
}

// UFPPFractional writes the LP of UFPPRelaxation straight into its
// tableau; solving the relaxation as a Problem must give the same point
// and objective, bit for bit, because both run the same pivots.
func TestUFPPFractionalMatchesRelaxation(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		m := 1 + r.Intn(12)
		in := &model.Instance{Capacity: make([]int64, m)}
		for e := range in.Capacity {
			in.Capacity[e] = 1 + r.Int63n(64)
		}
		for j := 0; j < r.Intn(30); j++ {
			s := r.Intn(m)
			in.Tasks = append(in.Tasks, model.Task{ID: j, Start: s, End: s + 1 + r.Intn(m-s), Demand: 1 + r.Int63n(32), Weight: r.Int63n(100)})
		}
		x, opt, err := UFPPFractional(in)
		if err != nil {
			t.Fatalf("trial %d: UFPPFractional: %v", trial, err)
		}
		sol, err := Solve(UFPPRelaxation(in))
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		if opt != sol.Objective || len(x) != len(sol.X) {
			t.Fatalf("trial %d: UFPPFractional %g over %d tasks, Solve %g over %d", trial, opt, len(x), sol.Objective, len(sol.X))
		}
		for j := range x {
			if x[j] != sol.X[j] {
				t.Fatalf("trial %d: x[%d] = %g, Solve has %g", trial, j, x[j], sol.X[j])
			}
		}
	}
}

func TestUFPPRelaxationFractionalGap(t *testing.T) {
	// Knapsack-like shared edge: two tasks each demand 3, capacity 4; LP
	// packs x=(1, 1/3) for weights (3,3) → 4; integral optimum 3.
	in := &model.Instance{
		Capacity: []int64{4},
		Tasks: []model.Task{
			{ID: 0, Start: 0, End: 1, Demand: 3, Weight: 3},
			{ID: 1, Start: 0, End: 1, Demand: 3, Weight: 3},
		},
	}
	_, opt, err := UFPPFractional(in)
	if err != nil {
		t.Fatalf("UFPPFractional: %v", err)
	}
	if !almostEq(opt, 4, 1e-7) {
		t.Errorf("LP opt = %g, want 4", opt)
	}
}

// The LP optimum upper-bounds any feasible integral UFPP solution.
func TestLPUpperBoundsIntegral(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		m := 2 + r.Intn(5)
		in := &model.Instance{Capacity: make([]int64, m)}
		for e := range in.Capacity {
			in.Capacity[e] = 4 + r.Int63n(12)
		}
		n := 2 + r.Intn(8)
		for j := 0; j < n; j++ {
			s := r.Intn(m)
			e := s + 1 + r.Intn(m-s)
			in.Tasks = append(in.Tasks, model.Task{
				ID: j, Start: s, End: e,
				Demand: 1 + r.Int63n(6),
				Weight: 1 + r.Int63n(30),
			})
		}
		_, opt, err := UFPPFractional(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		best := bruteForceUFPP(in)
		if float64(best) > opt+1e-6 {
			t.Fatalf("trial %d: integral %d exceeds LP bound %g", trial, best, opt)
		}
	}
}

func bruteForceUFPP(in *model.Instance) int64 {
	n := len(in.Tasks)
	var best int64
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
	return best
}

func TestSolveIterationLimit(t *testing.T) {
	// A large random LP under an absurdly small iteration budget must error
	// out rather than loop; the limit is maxIterMult*(n+m+1), so exceed it
	// with a big instance and check the solver still terminates cleanly.
	r := rand.New(rand.NewSource(99))
	const m, n = 20, 60
	p := &Problem{A: make([][]float64, m), B: make([]float64, m), C: make([]float64, n), U: make([]float64, n)}
	for i := 0; i < m; i++ {
		p.A[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			p.A[i][j] = float64(r.Intn(5))
		}
		p.B[i] = float64(10 + r.Intn(50))
	}
	for j := 0; j < n; j++ {
		p.C[j] = float64(1 + r.Intn(30))
		p.U[j] = 1
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("solver failed on benign LP: %v", err)
	}
	if err := VerifyFeasible(p, s.X, 1e-7); err != nil {
		t.Fatalf("%v", err)
	}
	if !almostEq(s.Objective, DualBound(p, s.Dual), 1e-6) {
		t.Fatalf("duality gap on large LP")
	}
}

func TestVerifyFeasibleRejects(t *testing.T) {
	p := &Problem{A: [][]float64{{1}}, B: []float64{1}, C: []float64{1}, U: []float64{1}}
	if err := VerifyFeasible(p, []float64{2}, 1e-9); err == nil {
		t.Errorf("x above bound accepted")
	}
	if err := VerifyFeasible(p, []float64{-0.5}, 1e-9); err == nil {
		t.Errorf("negative x accepted")
	}
	if err := VerifyFeasible(p, []float64{0.5, 0.5}, 1e-9); err == nil {
		t.Errorf("wrong length accepted")
	}
	p2 := &Problem{A: [][]float64{{2}}, B: []float64{1}, C: []float64{1}, U: []float64{1}}
	if err := VerifyFeasible(p2, []float64{1}, 1e-9); err == nil {
		t.Errorf("row violation accepted")
	}
}
