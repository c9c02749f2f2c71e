package window

import (
	"context"
	"math/rand"
	"testing"

	"sapalloc/internal/scratch"
)

// allocBudget runs f through AllocsPerRun and enforces an explicit per-op
// allocation budget, mirroring internal/exact's gate. Before the arena
// conversion the B&B search allocated a candidate slice plus a sort.Slice
// closure on every node, so a regression overshoots the budget by orders of
// magnitude, not by rounding error.
func allocBudget(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	f() // warm arena chunks and pool
	got := testing.AllocsPerRun(20, f)
	t.Logf("%s: %.1f allocs/op (budget %.0f)", name, got, budget)
	if got > budget {
		t.Errorf("%s: %.1f allocs/op exceeds budget %.0f", name, got, budget)
	}
}

func TestAllocsSolveExact(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	r := rand.New(rand.NewSource(17))
	in := randomWindowed(r, 5, 10, 2)
	a := scratch.Get()
	defer scratch.Put(a)
	ctx := scratch.With(context.Background(), a)
	allocBudget(t, "SolveExactCtx/10tasks", 6, func() {
		a.Reset()
		if _, err := SolveExactCtx(ctx, in, Options{}); err != nil {
			t.Fatal(err)
		}
	})
}
