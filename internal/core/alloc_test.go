package core_test

import (
	"runtime/debug"
	"testing"

	"sapalloc/internal/core"
	"sapalloc/internal/gen"
	"sapalloc/internal/scratch"
)

// TestAllocsCoreDispatch pins the allocation cost of the full three-arm
// dispatch on a mixed instance: with one worker the arms and their class
// solves run one after another on one pooled arena, and all DP/search
// scratch comes out of it. The budget is the end-to-end count — result
// construction, reports and fan-out machinery included — and sits orders
// of magnitude below the pre-arena pipeline, which allocated per DP state
// and per branch-and-bound node. The collector is off while counting, so a
// collection that empties the arena pool cannot add chunk allocations to
// the count.
func TestAllocsCoreDispatch(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	in := gen.Random(gen.Config{Seed: 21, Edges: 8, Tasks: 40, CapLo: 8, CapHi: 129, Class: gen.Mixed})
	f := func() {
		if _, err := core.Solve(in, core.Params{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f() // warm the arena pool
	got := testing.AllocsPerRun(10, f)
	const budget = 41
	t.Logf("core.Solve/40tasks: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("core.Solve/40tasks: %.1f allocs/op exceeds budget %d", got, budget)
	}
}

// TestAllocsShardedSolve pins the allocation cost of one sharded solve: a
// 32-island archipelago, each island a shard whose three arms run their
// class solves one after another on one pooled arena. Only what
// an arm returns (its solution and reports), the stitched solution and
// the shard reports are fresh memory: about 30 allocations per shard. The
// collector is off while counting, so a collection that empties the arena
// pool cannot add chunk allocations to the count.
func TestAllocsShardedSolve(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	in := gen.Archipelago(gen.ArchipelagoConfig{Seed: 3, Islands: 32, IslandEdges: 8, GapEdges: 2, TasksPerIsland: 10, Class: gen.Mixed})
	f := func() {
		if _, err := core.Solve(in, core.Params{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f() // warm the arena pool
	got := testing.AllocsPerRun(10, f)
	const budget = 922
	t.Logf("core.Solve/archipelago-320: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("core.Solve/archipelago-320: %.1f allocs/op exceeds budget %d", got, budget)
	}
}
