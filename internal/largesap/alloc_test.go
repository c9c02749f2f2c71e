package largesap_test

import (
	"context"
	"testing"

	"sapalloc/internal/gen"
	"sapalloc/internal/largesap"
	"sapalloc/internal/scratch"
)

// TestAllocsSolveLarge pins the allocation cost of the path DP: states live
// in an arena-backed slab behind a single reused index map, so a solve costs
// a near-constant number of allocations regardless of how many DP states it
// visits. Before the slab conversion this loop allocated one map entry and
// one trace slice per state.
func TestAllocsSolveLarge(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	in := gen.Random(gen.Config{Seed: 13, Edges: 8, Tasks: 24, CapLo: 8, CapHi: 129, Class: gen.Large})
	a := scratch.Get()
	defer scratch.Put(a)
	ctx := scratch.With(context.Background(), a)
	f := func() {
		a.Reset()
		if _, err := largesap.SolveCtx(ctx, in, largesap.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	f() // warm arena chunks
	got := testing.AllocsPerRun(20, f)
	const budget = 9
	t.Logf("largesap.SolveCtx/24tasks: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("largesap.SolveCtx/24tasks: %.1f allocs/op exceeds budget %d", got, budget)
	}
}
