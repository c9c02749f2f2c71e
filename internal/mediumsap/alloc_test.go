package mediumsap_test

import (
	"runtime/debug"
	"testing"

	"sapalloc/internal/gen"
	"sapalloc/internal/mediumsap"
	"sapalloc/internal/scratch"
)

// TestAllocsSolveMedium pins the allocation cost of Algorithm AlmostUniform
// end to end: the class lists, the clipped class sub-instances, the exact
// searches and the elevated class solutions all live in one arena, and
// only the winning residue's stack is built as a fresh solution. The
// budget covers result construction and fan-out machinery; a return to
// per-node or per-class-copy allocation overshoots it by orders of
// magnitude. The collector is off while counting, so a collection that
// empties the arena pool cannot add chunk allocations to the count.
func TestAllocsSolveMedium(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	in := gen.Random(gen.Config{Seed: 19, Edges: 8, Tasks: 24, CapLo: 8, CapHi: 129, Class: gen.Medium})
	f := func() {
		if _, err := mediumsap.Solve(in, mediumsap.Params{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f() // warm the arena pool
	got := testing.AllocsPerRun(10, f)
	const budget = 8
	t.Logf("mediumsap.Solve/24tasks: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("mediumsap.Solve/24tasks: %.1f allocs/op exceeds budget %d", got, budget)
	}
}
