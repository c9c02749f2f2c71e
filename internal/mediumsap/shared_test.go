package mediumsap_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"sapalloc/internal/classes"
	"sapalloc/internal/exact"
	"sapalloc/internal/gen"
	"sapalloc/internal/mediumsap"
	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/scratch"
)

// perClass is Algorithm AlmostUniform with one search per class, built
// from public pieces: the class plan, ElevatorCtx on every class with its
// own clip, and the stack of the heaviest residue (ties to the lowest).
func perClass(t *testing.T, in *model.Instance, p mediumsap.Params, ell, q int) *mediumsap.Result {
	t.Helper()
	a := scratch.Get()
	defer scratch.Put(a)
	plan := classes.New(a, in, ell)
	period := ell + q
	res := &mediumsap.Result{Classes: map[int]int64{}, Ell: ell, Q: q}
	sols := make([]*model.Solution, plan.Len())
	weight := make([]int64, period)
	for i := range plan.Len() {
		k := plan.K(i)
		sol, degraded, err := mediumsap.ElevatorCtx(context.Background(), in, plan.Tasks(i), k, ell, p)
		if err != nil {
			t.Fatalf("class k=%d: %v", k, err)
		}
		sols[i] = sol
		res.Degraded = res.Degraded || degraded
		res.Classes[k] = sol.Weight()
		weight[((k%period)+period)%period] += sol.Weight()
	}
	for r := 1; r < period; r++ {
		if weight[r] > weight[res.Residue] {
			res.Residue = r
		}
	}
	best := &model.Solution{}
	for i, sol := range sols {
		if k := plan.K(i); ((k%period)+period)%period == res.Residue {
			best.Items = append(best.Items, sol.Items...)
		}
	}
	res.Solution = best.SortByID()
	return res
}

// TestSharedSearchMatchesPerClass checks that searching each run of
// identical classes once gives what a search per class gives: the same
// solution, class weights, residue and degraded flag, at one and two
// workers, with searches cut short by small node budgets as well as
// complete ones. gen.Banner's uniform capacities make all of its classes
// identical.
func TestSharedSearchMatchesPerClass(t *testing.T) {
	type tc struct {
		name string
		in   *model.Instance
	}
	var cases []tc
	for seed := int64(1); seed <= 20; seed++ {
		cases = append(cases, tc{fmt.Sprintf("random/seed=%d", seed),
			gen.Random(gen.Config{Seed: seed, Edges: 24, Tasks: 56, MaxSpan: 8, Class: gen.Medium})})
	}
	cases = append(cases, tc{"banner", gen.Banner(gen.BannerConfig{Seed: 1})})
	obs.EnableMetrics()
	t.Cleanup(obs.DisableMetrics)
	shared := 0
	for _, c := range cases {
		for _, budget := range []int64{2_000, 50_000} {
			p := mediumsap.Params{Exact: exact.Options{MaxNodes: budget}}
			var want *mediumsap.Result
			for _, workers := range []int{1, 2} {
				p.Workers = workers
				before := obs.MediumClassesShared.Value()
				got, err := mediumsap.SolveCtx(context.Background(), c.in, p)
				if err != nil {
					t.Fatalf("%s budget %d workers %d: %v", c.name, budget, workers, err)
				}
				shared += int(obs.MediumClassesShared.Value() - before)
				if want == nil {
					want = perClass(t, c.in, p, got.Ell, got.Q)
				}
				if !reflect.DeepEqual(got.Solution, want.Solution) || !reflect.DeepEqual(got.Classes, want.Classes) ||
					got.Residue != want.Residue || got.Degraded != want.Degraded || len(got.ClassErrs) != 0 {
					t.Errorf("%s budget %d workers %d: shared search gives classes %v residue %d degraded %v weight %d; per class %v residue %d degraded %v weight %d",
						c.name, budget, workers, got.Classes, got.Residue, got.Degraded, got.Solution.Weight(),
						want.Classes, want.Residue, want.Degraded, want.Solution.Weight())
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no class was answered by a shared search: the cases test nothing")
	}
}

// TestBannerClassesShared pins medium_classes_shared: a gen.Banner
// instance has uniform capacities, so its ℓ = 4 classes hold the same
// tasks and share one search, and the three others count as shared. The
// search is cut short by its budget, and medium_exact_fallbacks still
// counts each of the four degraded classes.
func TestBannerClassesShared(t *testing.T) {
	in := gen.Banner(gen.BannerConfig{Seed: 1})
	p := mediumsap.Params{Workers: 1, Exact: exact.Options{MaxNodes: 2_000}}
	obs.EnableMetrics()
	t.Cleanup(obs.DisableMetrics)
	shared, fallbacks := obs.MediumClassesShared.Value(), obs.ExactFallbacks.Value()
	res, err := mediumsap.Solve(in, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != 4 || !res.Degraded {
		t.Fatalf("banner has %d classes, degraded %v; want 4 degraded classes", len(res.Classes), res.Degraded)
	}
	if got := obs.MediumClassesShared.Value() - shared; got != 3 {
		t.Errorf("medium_classes_shared rose by %d, want 3", got)
	}
	if got := obs.ExactFallbacks.Value() - fallbacks; got != 4 {
		t.Errorf("medium_exact_fallbacks rose by %d, want 4", got)
	}
}
