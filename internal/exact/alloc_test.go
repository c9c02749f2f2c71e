package exact_test

import (
	"context"
	"testing"

	"sapalloc/internal/exact"
	"sapalloc/internal/gen"
	"sapalloc/internal/scratch"
)

// allocBudget runs f through AllocsPerRun and enforces an explicit per-op
// allocation budget. The budgets pin the arena conversion: before it, these
// paths allocated per DP state / per branch-and-bound node, so a regression
// overshoots the budget by orders of magnitude, not by rounding error.
func allocBudget(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	f() // warm arena chunks and pool
	got := testing.AllocsPerRun(20, f)
	t.Logf("%s: %.1f allocs/op (budget %.0f)", name, got, budget)
	if got > budget {
		t.Errorf("%s: %.1f allocs/op exceeds budget %.0f", name, got, budget)
	}
}

func TestAllocsSolveSAP(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	in := gen.Random(gen.Config{Seed: 7, Edges: 6, Tasks: 12, CapLo: 8, CapHi: 129})
	a := scratch.Get()
	defer scratch.Put(a)
	ctx := scratch.With(context.Background(), a)
	allocBudget(t, "SolveSAPCtx/12tasks", 2, func() {
		a.Reset()
		if _, err := exact.SolveSAPCtx(ctx, in, exact.Options{}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocsSolveUFPP(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	in := gen.Random(gen.Config{Seed: 11, Edges: 6, Tasks: 14, CapLo: 8, CapHi: 129})
	a := scratch.Get()
	defer scratch.Put(a)
	ctx := scratch.With(context.Background(), a)
	allocBudget(t, "SolveUFPPCtx/14tasks", 4, func() {
		a.Reset()
		if _, err := exact.SolveUFPPCtx(ctx, in, exact.Options{}); err != nil {
			t.Fatal(err)
		}
	})
}
