package smallsap_test

import (
	"runtime/debug"
	"testing"

	"sapalloc/internal/gen"
	"sapalloc/internal/scratch"
	"sapalloc/internal/smallsap"
)

// TestAllocsSolveSmall pins the allocation cost of Strip-Pack end to end:
// the bottleneck classes, their clipped sub-instances, the LP tableaux,
// the rounding and packing buffers and the class strips all come out of
// the arena, so what is left is the merged solution, the reports and the
// class fan-out. The collector is off while counting, so a collection that
// empties the arena pool cannot add chunk allocations to the count.
func TestAllocsSolveSmall(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	in := gen.Random(gen.Config{Seed: 4, Edges: 16, Tasks: 40, CapLo: 64, CapHi: 2049, Class: gen.Small})
	f := func() {
		if _, err := smallsap.Solve(in, smallsap.Params{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f() // warm the arena pool
	got := testing.AllocsPerRun(10, f)
	const budget = 21
	t.Logf("smallsap.Solve/40tasks: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("smallsap.Solve/40tasks: %.1f allocs/op exceeds budget %d", got, budget)
	}
}
