package ufppfull

import (
	"math/rand"
	"testing"

	"sapalloc/internal/core"
	"sapalloc/internal/exact"
	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/oracle"
)

func TestSolveFeasible(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		in := gen.Random(gen.Config{
			Seed: int64(trial), Edges: 3 + r.Intn(8), Tasks: 5 + r.Intn(25),
			CapLo: 32, CapHi: 257, Class: gen.Mixed,
		})
		res, err := Solve(in, Params{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := oracle.CheckUFPP(in, res.Tasks); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
		maxArm := res.SmallWeight
		if res.MediumWeight > maxArm {
			maxArm = res.MediumWeight
		}
		if res.LargeWeight > maxArm {
			maxArm = res.LargeWeight
		}
		if model.WeightOf(res.Tasks) != maxArm {
			t.Fatalf("trial %d: winner %d != max arm %d", trial, model.WeightOf(res.Tasks), maxArm)
		}
	}
}

func TestSolveWithinLooseBound(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		in := gen.Random(gen.Config{
			Seed: int64(100 + trial), Edges: 2 + r.Intn(4), Tasks: 4 + r.Intn(6),
			CapLo: 64, CapHi: 257, Class: gen.Mixed,
		})
		res, err := Solve(in, Params{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		opt, err := exact.SolveUFPP(in, exact.Options{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		// Bonsma's framework proves 7+ε; allow 8 for the budgeted variant.
		if 8*model.WeightOf(res.Tasks) < model.WeightOf(opt) {
			t.Fatalf("trial %d: combined UFPP %d below OPT/8 (OPT=%d)",
				trial, model.WeightOf(res.Tasks), model.WeightOf(opt))
		}
	}
}

// The UFPP pipeline must dominate the SAP pipeline in opportunity: with the
// contiguity constraint dropped, at least the SAP solution itself is
// UFPP-feasible, so the exact optima satisfy UFPP ≥ SAP. The approximate
// pipelines may cross occasionally; the exact comparison may not.
func TestPriceOfContiguityExact(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		in := gen.Random(gen.Config{
			Seed: int64(200 + trial), Edges: 2 + r.Intn(4), Tasks: 3 + r.Intn(6),
			CapLo: 8, CapHi: 65, Class: gen.Mixed,
		})
		u, err := exact.SolveUFPP(in, exact.Options{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		s, err := exact.SolveSAP(in, exact.Options{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		if s.Weight() > model.WeightOf(u) {
			t.Fatalf("trial %d: SAP OPT %d above UFPP OPT %d", trial, s.Weight(), model.WeightOf(u))
		}
	}
}

func TestSolveEmpty(t *testing.T) {
	in := &model.Instance{Capacity: []int64{8}}
	res, err := Solve(in, Params{})
	if err != nil || len(res.Tasks) != 0 {
		t.Errorf("empty: %+v %v", res, err)
	}
}

func TestSolvePureLarge(t *testing.T) {
	in := gen.Random(gen.Config{Seed: 5, Edges: 4, Tasks: 8, CapLo: 64, CapHi: 257, Class: gen.Large})
	res, err := Solve(in, Params{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if res.Winner != ArmLarge || model.WeightOf(res.Tasks) == 0 {
		t.Errorf("winner %v weight %d, want large arm positive", res.Winner, model.WeightOf(res.Tasks))
	}
}

// TestPartitionDemandOverflow: with DeltaDen 2^30, a demand of 2^34 times
// DeltaDen wraps int64 to 0, which a product test reads as δ-small. The
// task is medium (2^34 > 2^40/2^30 and 2·2^34 ≤ 2^40), as core.Partition
// classifies it, so the medium arm must win it.
func TestPartitionDemandOverflow(t *testing.T) {
	in := &model.Instance{
		Capacity: []int64{1 << 40},
		Tasks:    []model.Task{{ID: 0, Start: 0, End: 1, Demand: 1 << 34, Weight: 5}},
	}
	res, err := Solve(in, Params{DeltaDen: 1 << 30, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != ArmMedium || res.SmallWeight != 0 || res.MediumWeight != 5 {
		t.Errorf("winner %v, weights small %d medium %d; want the medium arm to take the task",
			res.Winner, res.SmallWeight, res.MediumWeight)
	}
}

func TestRepairToFeasible(t *testing.T) {
	in := &model.Instance{
		Capacity: []int64{5},
		Tasks: []model.Task{
			{ID: 0, Start: 0, End: 1, Demand: 3, Weight: 1},
			{ID: 1, Start: 0, End: 1, Demand: 3, Weight: 9},
		},
	}
	kept := repairToFeasible(in, in.Tasks)
	if len(kept) != 1 || kept[0].ID != 1 {
		t.Errorf("repair kept %v, want only the heavy task", kept)
	}
}

// UFPP pipeline vs SAP pipeline on the same workloads: the UFPP arm weights
// should (weakly) dominate on average since contiguity only constrains.
func TestPipelinesComparable(t *testing.T) {
	var sapTotal, ufppTotal int64
	for trial := 0; trial < 8; trial++ {
		in := gen.Random(gen.Config{
			Seed: int64(300 + trial), Edges: 8, Tasks: 30,
			CapLo: 64, CapHi: 257, Class: gen.Mixed,
		})
		u, err := Solve(in, Params{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		s, err := core.Solve(in, core.Params{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		sapTotal += s.Solution.Weight()
		ufppTotal += model.WeightOf(u.Tasks)
	}
	if sapTotal <= 0 || ufppTotal <= 0 {
		t.Fatalf("vacuous comparison: sap=%d ufpp=%d", sapTotal, ufppTotal)
	}
	t.Logf("aggregate SAP pipeline %d vs UFPP pipeline %d (ratio %.3f)",
		sapTotal, ufppTotal, float64(ufppTotal)/float64(sapTotal))
}

func TestArmString(t *testing.T) {
	for _, a := range []Arm{ArmSmall, ArmMedium, ArmLarge} {
		if a.String() == "" {
			t.Errorf("empty arm string")
		}
	}
}
