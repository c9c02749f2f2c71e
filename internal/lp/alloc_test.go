package lp_test

import (
	"context"
	"testing"

	"sapalloc/internal/gen"
	"sapalloc/internal/lp"
	"sapalloc/internal/scratch"
)

// TestAllocsUFPPFractionalIn pins the allocation cost of one class LP: the
// tableau is written straight into the arena and solved there, so the
// call allocates nothing once the arena's chunks are warm.
func TestAllocsUFPPFractionalIn(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	in := gen.Random(gen.Config{Seed: 4, Edges: 16, Tasks: 40, CapLo: 512, CapHi: 1024, Class: gen.Small})
	a := scratch.Get()
	defer scratch.Put(a)
	ctx := context.Background()
	f := func() {
		a.Reset()
		if _, _, err := lp.UFPPFractionalIn(ctx, a, in); err != nil {
			t.Fatal(err)
		}
	}
	f() // warm the arena
	got := testing.AllocsPerRun(20, f)
	const budget = 0
	t.Logf("UFPPFractionalIn: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("UFPPFractionalIn: %.1f allocs/op exceeds budget %d", got, budget)
	}
}
