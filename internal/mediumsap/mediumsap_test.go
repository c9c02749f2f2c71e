package mediumsap

import (
	"math/rand"
	"testing"

	"sapalloc/internal/classes"
	"sapalloc/internal/exact"
	"sapalloc/internal/model"
	"sapalloc/internal/oracle"
)

// mediumInstance generates tasks that are δ-large and (1−2β)-small for
// β = 1/4 (i.e. d ∈ (δ·b, b/2]).
func mediumInstance(r *rand.Rand, m, n int, deltaDen int64) *model.Instance {
	in := &model.Instance{Capacity: make([]int64, m)}
	for e := range in.Capacity {
		in.Capacity[e] = 32 * (1 + r.Int63n(8)) // 32..256
	}
	for i := 0; i < n; i++ {
		s := r.Intn(m)
		e := s + 1 + r.Intn(m-s)
		b := in.Bottleneck(model.Task{Start: s, End: e, Demand: 1})
		lo := b/deltaDen + 1
		hi := b / 2
		if lo > hi {
			lo = hi
		}
		in.Tasks = append(in.Tasks, model.Task{
			ID: i, Start: s, End: e,
			Demand: lo + r.Int63n(hi-lo+1),
			Weight: 1 + r.Int63n(50),
		})
	}
	return in
}

func TestParamsDerived(t *testing.T) {
	p := Params{Eps: 0.5, BetaNum: 1, BetaDen: 4}
	if q := p.q(); q != 2 {
		t.Errorf("q = %d, want 2 for β=1/4", q)
	}
	if l := p.ell(); l != 4 {
		t.Errorf("ℓ = %d, want 4 for ε=0.5, q=2", l)
	}
	p3 := Params{Eps: 1, BetaNum: 1, BetaDen: 3}
	if q := p3.q(); q != 2 {
		t.Errorf("q = %d, want 2 for β=1/3 (2^2 ≥ 3)", q)
	}
	d := Params{}.withDefaults()
	if d.BetaNum != 1 || d.BetaDen != 4 || d.Eps != 0.5 {
		t.Errorf("defaults = %+v", d)
	}
}

func TestSolveRejectsBadBeta(t *testing.T) {
	in := &model.Instance{Capacity: []int64{8}}
	if _, err := Solve(in, Params{Eps: 0.5, BetaNum: 1, BetaDen: 2}); err == nil {
		t.Errorf("β = 1/2 accepted")
	}
}

func TestSolveEmpty(t *testing.T) {
	in := &model.Instance{Capacity: []int64{8}}
	res, err := Solve(in, Params{})
	if err != nil || res.Solution.Len() != 0 {
		t.Errorf("empty: %+v %v", res, err)
	}
}

func TestSolveFeasibleAndWithinBound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		in := mediumInstance(r, 2+r.Intn(4), 1+r.Intn(8), 4)
		res, err := Solve(in, Params{Eps: 0.5})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := oracle.CheckSAP(in, res.Solution); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
		opt, err := exact.SolveSAP(in, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d: exact: %v", trial, err)
		}
		// Theorem 2: (2+ε)-approximation with ε=0.5 → factor 2.5.
		if err := oracle.CheckRatio(res.Solution.Weight(), 2.5, oracle.ExactBound(opt.Weight())); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestElevatePartition(t *testing.T) {
	tasks := []model.Task{
		{ID: 0, Start: 0, End: 1, Demand: 4, Weight: 3},
		{ID: 1, Start: 0, End: 1, Demand: 4, Weight: 5},
	}
	sol := model.NewSolution(tasks, []int64{0, 8}) // k=5: β·2^k = 8 for β=1/4
	lifted, kept := ElevatePartition(sol, 5, 1, 4)
	if lifted.Len() != 1 || kept.Len() != 1 {
		t.Fatalf("partition sizes = %d/%d, want 1/1", lifted.Len(), kept.Len())
	}
	if lifted.Items[0].Task.ID != 0 || lifted.Items[0].Height != 8 {
		t.Errorf("task 0 should be lifted to 8, got %+v", lifted.Items[0])
	}
	if kept.Items[0].Task.ID != 1 || kept.Items[0].Height != 8 {
		t.Errorf("task 1 should keep height 8, got %+v", kept.Items[0])
	}
	if !IsElevated(lifted, 5, 1, 4) || !IsElevated(kept, 5, 1, 4) {
		t.Errorf("partitions not β-elevated")
	}
	if IsElevated(sol, 5, 1, 4) {
		t.Errorf("original solution wrongly reported elevated")
	}
}

func TestElevatePartitionNegativeK(t *testing.T) {
	tasks := []model.Task{{ID: 0, Start: 0, End: 1, Demand: 1, Weight: 1}}
	sol := model.NewSolution(tasks, []int64{0})
	lifted, kept := ElevatePartition(sol, -3, 1, 4) // λ = 1/32
	if kept.Len() != 0 || lifted.Len() != 1 {
		t.Fatalf("negative-k partition sizes = %d/%d", lifted.Len(), kept.Len())
	}
	if lifted.Items[0].Height != 1 {
		t.Errorf("lift by ⌈1/32⌉ = 1, got %d", lifted.Items[0].Height)
	}
	if !IsElevated(lifted, -3, 1, 4) {
		t.Errorf("lifted solution not elevated for negative k")
	}
}

// Lemma 14 as a property: partitioning any feasible class solution yields
// two β-elevated solutions, each feasible, together covering all tasks.
func TestElevatePartitionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		in := mediumInstance(r, 2+r.Intn(4), 1+r.Intn(7), 4)
		opt, err := exact.SolveSAP(in, exact.Options{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		// Use k = floor(log2 min bottleneck of scheduled tasks): every edge
		// used has capacity ≥ 2^k, matching Observation 6.
		if opt.Len() == 0 {
			continue
		}
		minB := int64(1) << 62
		for _, p := range opt.Items {
			if b := in.Bottleneck(p.Task); b < minB {
				minB = b
			}
		}
		k := classes.Log2(minB)
		lifted, kept := ElevatePartition(opt, k, 1, 4)
		if lifted.Len()+kept.Len() != opt.Len() {
			t.Fatalf("partition lost tasks")
		}
		if !IsElevated(lifted, k, 1, 4) || !IsElevated(kept, k, 1, 4) {
			t.Fatalf("partition not elevated")
		}
		if err := oracle.CheckSAP(in, lifted); err != nil {
			t.Fatalf("trial %d: lifted infeasible: %v", trial, err)
		}
		if err := oracle.CheckSAP(in, kept); err != nil {
			t.Fatalf("trial %d: kept infeasible: %v", trial, err)
		}
		if lifted.Weight()+kept.Weight() != opt.Weight() {
			t.Fatalf("partition weight mismatch")
		}
	}
}

func TestElevatorProducesElevated2Approx(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		in := mediumInstance(r, 2+r.Intn(3), 1+r.Intn(6), 4)
		p := Params{Eps: 0.5}.withDefaults()
		ell := p.ell()
		// Use the class of the smallest bottleneck.
		minB := int64(1) << 62
		for _, tk := range in.Tasks {
			if b := in.Bottleneck(tk); b < minB {
				minB = b
			}
		}
		k := classes.Log2(minB)
		var class []model.Task
		for _, tk := range in.Tasks {
			b := in.Bottleneck(tk)
			if b >= 1<<uint(k) && (k+ell >= 62 || b < 1<<uint(k+ell)) {
				class = append(class, tk)
			}
		}
		sol, err := Elevator(in, class, k, ell, p)
		if err != nil {
			t.Fatalf("%v", err)
		}
		if !IsElevated(sol, k, 1, 4) {
			t.Fatalf("trial %d: Elevator output not elevated", trial)
		}
		if err := oracle.CheckSAP(in, sol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		classIn := in.Restrict(class)
		opt, err := exact.SolveSAP(classIn, exact.Options{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		if 2*sol.Weight() < opt.Weight() {
			t.Fatalf("trial %d: Elevator %d below class OPT/2 (%d)", trial, sol.Weight(), opt.Weight())
		}
	}
}

// Stacked classes across a residue must be mutually non-conflicting even
// when bottleneck magnitudes differ wildly (Lemma 8).
func TestSolveStacksDistantClasses(t *testing.T) {
	// Two groups of tasks with bottlenecks 16 and 4096 sharing edges.
	in := &model.Instance{
		Capacity: []int64{16, 4096, 16},
		Tasks: []model.Task{
			{ID: 0, Start: 0, End: 2, Demand: 8, Weight: 5},    // b=16, medium (d = b/2)
			{ID: 1, Start: 1, End: 3, Demand: 8, Weight: 5},    // b=16
			{ID: 2, Start: 1, End: 2, Demand: 2048, Weight: 9}, // b=4096
		},
	}
	res, err := Solve(in, Params{Eps: 0.5})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if err := oracle.CheckSAP(in, res.Solution); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if res.Solution.Weight() == 0 {
		t.Fatalf("empty solution")
	}
}

func TestParamsOtherBetas(t *testing.T) {
	// β = 1/8 → q = 3; ε = 0.5 → ℓ = 6.
	p := Params{Eps: 0.5, BetaNum: 1, BetaDen: 8}
	if p.q() != 3 || p.ell() != 6 {
		t.Errorf("β=1/8: q=%d ℓ=%d, want 3/6", p.q(), p.ell())
	}
	// β = 3/8 (non-unit numerator) → 2^q ≥ 8/3 → q = 2.
	p2 := Params{Eps: 1, BetaNum: 3, BetaDen: 8}
	if p2.q() != 2 {
		t.Errorf("β=3/8: q=%d, want 2", p2.q())
	}
	// Solve with β = 1/8 on a (1−2β)=3/4-small instance stays feasible.
	r := rand.New(rand.NewSource(41))
	in := mediumInstance(r, 3, 6, 4)
	res, err := Solve(in, Params{Eps: 0.5, BetaNum: 1, BetaDen: 8})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if err := oracle.CheckSAP(in, res.Solution); err != nil {
		t.Fatalf("infeasible with β=1/8: %v", err)
	}
}

func TestLambdaRational(t *testing.T) {
	// k=3, β=1/4 → λ = 2; k=-2, β=1/4 → λ = 1/16.
	if n, d := lambda(3, 1, 4); n != 8 || d != 4 {
		t.Errorf("lambda(3) = %d/%d", n, d)
	}
	if n, d := lambda(-2, 1, 4); n != 1 || d != 16 {
		t.Errorf("lambda(-2) = %d/%d", n, d)
	}
}
