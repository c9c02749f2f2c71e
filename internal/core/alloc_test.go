package core_test

import (
	"runtime/debug"
	"testing"

	"sapalloc/internal/core"
	"sapalloc/internal/gen"
	"sapalloc/internal/scratch"
)

// TestAllocsCoreDispatch pins the allocation cost of the full three-arm
// dispatch on a mixed instance: each arm Gets a pooled arena, every class
// worker below shadows it with its own, and all DP/search scratch comes out
// of those arenas. The budget is the end-to-end count — result construction,
// reports and goroutine machinery included — and sits orders of magnitude
// below the pre-arena pipeline, which allocated per DP state and per
// branch-and-bound node.
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
	f() // warm the arena pool
	got := testing.AllocsPerRun(10, f)
	const budget = 1500
	t.Logf("core.Solve/40tasks: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("core.Solve/40tasks: %.1f allocs/op exceeds budget %d", got, budget)
	}
}

// TestAllocsShardedSolve pins the allocation cost of one sharded solve: a
// 32-island archipelago, each island a shard whose three arms run their
// class solves one after another on the shard worker's arena. Only what
// an arm returns (its solution and reports), the stitched solution and
// the shard reports are fresh memory: about 41 allocations per shard. The
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
	const budget = 1310
	t.Logf("core.Solve/archipelago-320: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("core.Solve/archipelago-320: %.1f allocs/op exceeds budget %d", got, budget)
	}
}
