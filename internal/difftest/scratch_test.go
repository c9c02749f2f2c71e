package difftest

import (
	"fmt"
	"reflect"
	"testing"

	"sapalloc/internal/core"
	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/ringsap"
	"sapalloc/internal/scratch"
)

// dirtyArenaPool cycles a batch of arenas through the scratch pool, growing
// chunks in every slab and filling them with garbage before Put (which, with
// poisoning on, overwrites them with the sentinel pattern). Solves that
// follow draw these dirtied arenas from the pool, so any code that assumes
// zeroed or previous-run scratch contents produces a wrong answer instead of
// silently passing on fresh memory.
func dirtyArenaPool() {
	arenas := make([]*scratch.Arena, 8)
	for i := range arenas {
		a := scratch.Get()
		for _, n := range []int{64, 4096} {
			s64 := a.Int64s(n)
			for j := range s64 {
				s64[j] = int64(j)*2654435761 + 40503
			}
			s32 := a.Int32s(n)
			for j := range s32 {
				s32[j] = int32(j*40503 + 7)
			}
			si := a.Ints(n)
			for j := range si {
				si[j] = j*65599 + 3
			}
			sb := a.Bools(n)
			for j := range sb {
				sb[j] = j%3 != 0
			}
			su := a.Uint64s(n)
			for j := range su {
				su[j] = uint64(j)*0x9E3779B97F4A7C15 + 1
			}
			sf := a.Float64s(n)
			for j := range sf {
				sf[j] = float64(j%7) / 8
			}
			st := a.Tasks(n)
			for j := range st {
				st[j] = model.Task{ID: j, Start: j % 5, End: j%5 + 1, Demand: int64(j%9 + 1), Weight: int64(j%13 + 1)}
			}
			sp := a.Placements(n)
			for j := range sp {
				sp[j] = model.Placement{Task: st[j], Height: int64(j % 11)}
			}
		}
		arenas[i] = a
	}
	for _, a := range arenas {
		scratch.Put(a)
	}
}

// archipelagoCases are instances that decompose at zero-load cuts, so
// core.Solve takes the sharded path: every shard runs its arms and class
// solves one after another on the shard worker's arena. They stay out of
// PathCases, whose every case each exhaustive solver also runs.
func archipelagoCases() []Case {
	var cases []Case
	for _, tasks := range []int{10, 18} {
		cfg := gen.ArchipelagoConfig{Seed: int64(tasks), Islands: 8, IslandEdges: 8, GapEdges: 2, TasksPerIsland: tasks, Class: gen.Mixed}
		cases = append(cases, Case{Name: fmt.Sprintf("archipelago-%d", tasks), Replay: cfg.Replay(), In: gen.Archipelago(cfg)})
	}
	return cases
}

// TestScratchReusePoisoning pins the scratch ownership contract end to end:
// every path case, and the archipelago cases that take the sharded path,
// is solved twice per Workers value through pooled solver state, with the
// arena pool dirtied and poisoned between runs. Both runs must be
// byte-identical to a fresh-state baseline solved with poisoning off. A
// solver that reads scratch memory it never initialised (assuming zeroed
// chunks), or that retains arena-backed memory across a Put, diverges from
// the baseline here; with `go test -race` the matrix doubles as the
// cross-goroutine-arena probe.
func TestScratchReusePoisoning(t *testing.T) {
	defer scratch.SetPoison(false)
	paths := PathCases()
	for i, c := range append(paths, archipelagoCases()...) {
		t.Run(c.Name, func(t *testing.T) {
			scratch.SetPoison(false)
			base, err := core.Solve(c.In, core.Params{Workers: 1})
			if err != nil {
				t.Fatalf("baseline: %v (replay: %s)", err, c.Replay)
			}
			if i >= len(paths) && base.Shards == nil {
				t.Fatalf("the solve did not take the sharded path (replay: %s)", c.Replay)
			}
			stripTimings(base)
			scratch.SetPoison(true)
			for _, w := range []int{1, 2, 8} {
				for run := 0; run < 2; run++ {
					dirtyArenaPool()
					got, err := core.Solve(c.In, core.Params{Workers: w})
					if err != nil {
						t.Fatalf("workers=%d run=%d: %v (replay: %s)", w, run, err, c.Replay)
					}
					stripTimings(got)
					if !reflect.DeepEqual(got, base) {
						t.Errorf("workers=%d run=%d: Result differs from fresh-state baseline (replay: %s)\n got: %+v\nwant: %+v",
							w, run, c.Replay, got, base)
					}
				}
			}
		})
	}
}

// TestScratchReusePoisoningRing is the ring-side twin of the poisoning
// matrix: both reduction arms (cut-path and knapsack) of every ring case
// must survive dirtied pooled arenas at every Workers value.
func TestScratchReusePoisoningRing(t *testing.T) {
	defer scratch.SetPoison(false)
	for _, c := range RingCases() {
		t.Run(c.Name, func(t *testing.T) {
			scratch.SetPoison(false)
			base, err := ringsap.Solve(c.Ring, ringsap.Params{Workers: 1})
			if err != nil {
				t.Fatalf("baseline: %v (replay: %s)", err, c.Replay)
			}
			stripTimings(base.PathDetail)
			scratch.SetPoison(true)
			for _, w := range []int{1, 2, 8} {
				for run := 0; run < 2; run++ {
					dirtyArenaPool()
					got, err := ringsap.Solve(c.Ring, ringsap.Params{Workers: w})
					if err != nil {
						t.Fatalf("workers=%d run=%d: %v (replay: %s)", w, run, err, c.Replay)
					}
					stripTimings(got.PathDetail)
					if !reflect.DeepEqual(got, base) {
						t.Errorf("workers=%d run=%d: Result differs from fresh-state baseline (replay: %s)\n got: %+v\nwant: %+v",
							w, run, c.Replay, got, base)
					}
				}
			}
		})
	}
}
