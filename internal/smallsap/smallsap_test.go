package smallsap

import (
	"math/rand"
	"testing"

	"sapalloc/internal/classes"
	"sapalloc/internal/exact"
	"sapalloc/internal/lp"
	"sapalloc/internal/model"
	"sapalloc/internal/oracle"
)

// smallInstance generates a δ-small instance (δ = 1/deltaDen) with
// capacities spread over several bottleneck classes.
func smallInstance(r *rand.Rand, m, n int, deltaDen int64) *model.Instance {
	in := &model.Instance{Capacity: make([]int64, m)}
	for e := range in.Capacity {
		// Capacities in {32..63, 64..127, 128..255} – three classes.
		base := int64(32) << uint(r.Intn(3))
		in.Capacity[e] = base + r.Int63n(base)
	}
	for i := 0; i < n; i++ {
		s := r.Intn(m)
		e := s + 1 + r.Intn(m-s)
		b := in.Bottleneck(model.Task{Start: s, End: e, Demand: 1})
		maxD := b / deltaDen
		if maxD < 1 {
			maxD = 1
		}
		in.Tasks = append(in.Tasks, model.Task{
			ID: i, Start: s, End: e,
			Demand: 1 + r.Int63n(maxD),
			Weight: 1 + r.Int63n(60),
		})
	}
	return in
}

func TestSolveFeasible(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, rounding := range []Rounding{LPRound, LocalRatio} {
		for trial := 0; trial < 15; trial++ {
			in := smallInstance(r, 3+r.Intn(6), 5+r.Intn(30), 8)
			res, err := Solve(in, Params{Rounding: rounding})
			if err != nil {
				t.Fatalf("%v trial %d: %v", rounding, trial, err)
			}
			if err := oracle.CheckSAP(in, res.Solution); err != nil {
				t.Fatalf("%v trial %d: infeasible: %v", rounding, trial, err)
			}
		}
	}
}

func TestSolveEmpty(t *testing.T) {
	in := &model.Instance{Capacity: []int64{64}}
	res, err := Solve(in, Params{})
	if err != nil || res.Solution.Len() != 0 || len(res.Classes) != 0 {
		t.Errorf("empty: %+v %v", res, err)
	}
}

// Strips must land in disjoint bands: class t occupies [2^{t-1}, 2^t).
func TestStripBands(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		in := smallInstance(r, 4+r.Intn(4), 10+r.Intn(25), 8)
		res, err := Solve(in, Params{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		for _, pl := range res.Solution.Items {
			b := in.Bottleneck(pl.Task)
			cls := classes.Log2(b)
			lo := int64(1) << uint(cls-1)
			hi := int64(1) << uint(cls)
			if pl.Height < lo || pl.Top() > hi {
				t.Fatalf("trial %d: task id %d (class %d) at [%d,%d) outside band [%d,%d)",
					trial, pl.Task.ID, cls, pl.Height, pl.Top(), lo, hi)
			}
		}
	}
}

// Theorem 1's measured quality: the Strip-Pack weight must be within the
// proven (4+ε) of the true optimum on small instances; empirically it is
// far better, but we assert the theorem's bound against the exact optimum.
func TestSolveWithinBoundOfExact(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 12; trial++ {
		in := smallInstance(r, 2+r.Intn(3), 4+r.Intn(7), 8)
		res, err := Solve(in, Params{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		opt, err := exact.SolveSAP(in, exact.Options{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		// Assert the formal bound 4.5 (ε=0.5): 2·w·4.5 ≥ 2·OPT ⟺ 9w ≥ 2·OPT.
		if 9*res.Solution.Weight() < 2*opt.Weight() {
			t.Fatalf("trial %d: strip-pack %d below OPT/4.5 (OPT=%d)",
				trial, res.Solution.Weight(), opt.Weight())
		}
	}
}

// The per-class LP bound sums must dominate the achieved weight and, when
// every task is δ-small, upper-bound the full LP optimum restricted to the
// classes.
func TestLPBoundAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	in := smallInstance(r, 5, 25, 8)
	res, err := Solve(in, Params{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if float64(res.Solution.Weight()) > res.LPBoundTotal+1e-6 {
		t.Errorf("achieved weight %d exceeds LP bound total %g", res.Solution.Weight(), res.LPBoundTotal)
	}
	// Class LP bounds sum must be at least the whole-instance LP optimum of
	// any single class's task subset; sanity: positive and finite.
	if res.LPBoundTotal <= 0 {
		t.Errorf("vacuous LP bound %g", res.LPBoundTotal)
	}
	// Per-class diagnostics present and coherent.
	for _, c := range res.Classes {
		if c.RetainedWeight > c.UFPPWeight {
			t.Errorf("class %d: retained %d exceeds UFPP weight %d", c.T, c.RetainedWeight, c.UFPPWeight)
		}
		if float64(c.UFPPWeight) > c.LPBound+1e-6 {
			t.Errorf("class %d: UFPP weight %d exceeds its LP bound %g", c.T, c.UFPPWeight, c.LPBound)
		}
	}
}

// The whole-instance LP optimum also upper-bounds SAP OPT, tying the
// experiment harness's ratio measurements together.
func TestGlobalLPUpperBound(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	in := smallInstance(r, 3, 8, 8)
	_, lpOpt, err := lp.UFPPFractional(in)
	if err != nil {
		t.Fatalf("%v", err)
	}
	res, err := Solve(in, Params{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if float64(res.Solution.Weight()) > lpOpt+1e-6 {
		t.Errorf("strip-pack weight %d exceeds LP bound %g", res.Solution.Weight(), lpOpt)
	}
}

func TestClassSkipsBottleneckOne(t *testing.T) {
	in := &model.Instance{
		Capacity: []int64{1},
		Tasks:    []model.Task{{ID: 0, Start: 0, End: 1, Demand: 1, Weight: 5}},
	}
	res, err := Solve(in, Params{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if res.Solution.Len() != 0 {
		t.Errorf("b=1 task packed into an empty strip")
	}
}

func TestRoundingString(t *testing.T) {
	if LPRound.String() != "lp-round" || LocalRatio.String() != "local-ratio" {
		t.Errorf("rounding strings: %q %q", LPRound.String(), LocalRatio.String())
	}
}
