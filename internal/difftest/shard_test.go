package difftest

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"sapalloc/internal/core"
	"sapalloc/internal/exact"
	"sapalloc/internal/faultinject"
	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/oracle"
	"sapalloc/internal/shard"
)

// shardCases returns archipelago instances — the workload family the
// decomposition layer exists for — at small and larger sizes, each with a
// replay line.
func shardCases() []Case {
	configs := []gen.ArchipelagoConfig{
		{Seed: 801, Islands: 3, IslandEdges: 4, GapEdges: 1, TasksPerIsland: 6, CapLo: 16, CapHi: 65, Class: gen.Mixed},
		{Seed: 802, Islands: 5, IslandEdges: 6, GapEdges: 2, TasksPerIsland: 10, CapLo: 64, CapHi: 257, Class: gen.Small},
		{Seed: 803, Islands: 4, IslandEdges: 5, GapEdges: 3, TasksPerIsland: 8, CapLo: 32, CapHi: 129, Class: gen.Large},
		{Seed: 804, Islands: 6, IslandEdges: 8, GapEdges: 1, TasksPerIsland: 9, CapLo: 64, CapHi: 257, Class: gen.Medium},
	}
	var cases []Case
	for i, cfg := range configs {
		cases = append(cases, Case{
			Name:   "arch-" + string(rune('a'+i)),
			Replay: cfg.Replay(),
			In:     gen.Archipelago(cfg),
		})
	}
	return cases
}

// TestShardFallThrough pins the degenerate decomposition: on instances with
// no zero-load cut edge, the sharding-enabled solve must be byte-identical
// to an explicitly disabled one — same winner, weights, placements,
// diagnostics — at every workers value, and must attach no shard report.
func TestShardFallThrough(t *testing.T) {
	covered := 0
	for _, c := range PathCases() {
		if shard.Compute(context.Background(), c.In).Decomposes() {
			continue // exercised by TestShardDeterminism instead
		}
		covered++
		t.Run(c.Name, func(t *testing.T) {
			for _, w := range []int{1, 2, 8} {
				on, err := core.Solve(c.In, core.Params{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d sharding on: %v (replay: %s)", w, err, c.Replay)
				}
				off, err := core.Solve(c.In, core.Params{Workers: w, Shard: shard.Options{Disable: true}})
				if err != nil {
					t.Fatalf("workers=%d sharding off: %v (replay: %s)", w, err, c.Replay)
				}
				if on.Shards != nil {
					t.Fatalf("workers=%d: fall-through attached a shard report %+v (replay: %s)", w, on.Shards, c.Replay)
				}
				stripTimings(on)
				stripTimings(off)
				if !reflect.DeepEqual(on, off) {
					t.Errorf("workers=%d: fall-through differs from monolithic solve (replay: %s)\n on: %+v\noff: %+v",
						w, c.Replay, on, off)
				}
			}
		})
	}
	if covered == 0 {
		t.Fatal("no PathCases fall through — the fall-through contract is untested")
	}
}

// TestShardDeterminism is the sharded twin of TestParallelDeterminism: on
// decomposing instances the full Result — stitched placements, aggregated
// weights, shard report — must be byte-identical for workers ∈ {1, 2, 8}.
func TestShardDeterminism(t *testing.T) {
	for _, c := range shardCases() {
		t.Run(c.Name, func(t *testing.T) {
			base, err := core.Solve(c.In, core.Params{Workers: 1})
			if err != nil {
				t.Fatalf("workers=1: %v (replay: %s)", err, c.Replay)
			}
			if base.Shards == nil {
				t.Fatalf("archipelago did not decompose (replay: %s)", c.Replay)
			}
			stripTimings(base)
			for _, w := range []int{2, 8} {
				got, err := core.Solve(c.In, core.Params{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v (replay: %s)", w, err, c.Replay)
				}
				stripTimings(got)
				if !reflect.DeepEqual(got, base) {
					t.Errorf("workers=%d: Result differs from workers=1 (replay: %s)\n got: %+v\nwant: %+v",
						w, c.Replay, got, base)
				}
			}
		})
	}
}

// TestShardComponentEquivalence is the soundness cross-check of the
// decomposition: the sharded solve of the union must equal, byte for byte,
// the manual stitch of independent public-API solves of each shard's
// sub-instance — at every workers value, with per-shard verification on.
// It also re-derives the aggregation from those per-shard solves: the
// stitched weight and every per-arm task count and weight are the per-shard
// sums, the arm counts cover every task, the winner is the heaviest
// aggregated arm (small < medium < large on ties), each arm's state is its
// worst per-shard state, and the oracle accepts the stitched solution
// against the original instance.
//
// Two inputs make the last two rules observable. arch-tie puts one small
// and one large task of equal weight on separate islands, so the small and
// large arm sums tie. The max-nodes=64 pass caps the medium arm's exact
// search, so its state degrades on some shards only.
func TestShardComponentEquivalence(t *testing.T) {
	tie := Case{
		Name:   "arch-tie",
		Replay: "hand-built: small task [0,1) and large task [2,3), weight 5 each, capacity 64",
		In: &model.Instance{
			Capacity: []int64{64, 64, 64},
			Tasks: []model.Task{
				{ID: 0, Start: 0, End: 1, Demand: 1, Weight: 5},
				{ID: 1, Start: 2, End: 3, Demand: 40, Weight: 5},
			},
		},
	}
	for _, c := range append(shardCases(), tie) {
		t.Run(c.Name, func(t *testing.T) {
			plan := shard.Compute(context.Background(), c.In)
			if !plan.Decomposes() {
				t.Fatalf("archipelago did not decompose (replay: %s)", c.Replay)
			}
			for _, maxNodes := range []int64{0, 64} {
				p := core.Params{Exact: exact.Options{MaxNodes: maxNodes}}
				var want model.Solution
				var wantWeight int64
				// Per-arm sums over the shards, indexed by core.Arm.
				var armTasks [3]int
				var armWeights, reportWeights [3]int64
				var worst [3]core.ArmState
				for i := 0; i < plan.Len(); i++ {
					sub := plan.SubInstance(i)
					r, err := core.Solve(sub, p)
					if err != nil {
						t.Fatalf("max-nodes=%d shard %d: %v (replay: %s)", maxNodes, i, err, c.Replay)
					}
					lifted := plan.Span(i).Lift(r.Solution)
					want.Items = append(want.Items, lifted.Items...)
					wantWeight += r.Solution.Weight()
					armTasks[0] += r.NumSmall
					armTasks[1] += r.NumMedium
					armTasks[2] += r.NumLarge
					armWeights[0] += r.SmallWeight
					armWeights[1] += r.MediumWeight
					armWeights[2] += r.LargeWeight
					for a, ar := range r.Report.Arms {
						reportWeights[a] += ar.Weight
						worst[a] = max(worst[a], ar.State)
					}
				}
				wantWinner := core.ArmSmall
				for a := core.ArmMedium; a <= core.ArmLarge; a++ {
					if armWeights[a] > armWeights[wantWinner] {
						wantWinner = a
					}
				}
				for _, w := range []int{1, 2, 8} {
					tag := fmt.Sprintf("workers=%d max-nodes=%d", w, maxNodes)
					fp := p
					fp.Workers = w
					fp.Shard = shard.Options{Verify: true}
					full, err := core.Solve(c.In, fp)
					if err != nil {
						t.Fatalf("%s: %v (replay: %s)", tag, err, c.Replay)
					}
					if full.Shards == nil || full.Shards.Shards != plan.Len() || full.Shards.Completed != plan.Len() {
						t.Fatalf("%s: shard report %+v, want %d completed (replay: %s)",
							tag, full.Shards, plan.Len(), c.Replay)
					}
					if err := oracle.CheckSAP(c.In, full.Solution); err != nil {
						t.Fatalf("%s: stitched solution infeasible: %v (replay: %s)", tag, err, c.Replay)
					}
					if full.Solution.Weight() != wantWeight {
						t.Errorf("%s: stitched weight %d, want %d (replay: %s)",
							tag, full.Solution.Weight(), wantWeight, c.Replay)
					}
					if !reflect.DeepEqual(full.Solution.Items, want.Items) {
						t.Errorf("%s: stitched solution differs from manual per-shard stitch (replay: %s)",
							tag, c.Replay)
					}
					if n := full.NumSmall + full.NumMedium + full.NumLarge; n != len(c.In.Tasks) {
						t.Errorf("%s: arm task counts sum to %d, want %d tasks (replay: %s)",
							tag, n, len(c.In.Tasks), c.Replay)
					}
					if got := [3]int{full.NumSmall, full.NumMedium, full.NumLarge}; got != armTasks {
						t.Errorf("%s: arm task counts %v, want per-shard sums %v (replay: %s)",
							tag, got, armTasks, c.Replay)
					}
					if got := [3]int64{full.SmallWeight, full.MediumWeight, full.LargeWeight}; got != armWeights {
						t.Errorf("%s: arm weights %v, want per-shard sums %v (replay: %s)",
							tag, got, armWeights, c.Replay)
					}
					if full.Winner != wantWinner {
						t.Errorf("%s: winner %v, want heaviest aggregated arm %v (weights %v, replay: %s)",
							tag, full.Winner, wantWinner, armWeights, c.Replay)
					}
					for a, ar := range full.Report.Arms {
						if ar.Weight != reportWeights[a] {
							t.Errorf("%s: %v report weight %d, want per-shard sum %d (replay: %s)",
								tag, core.Arm(a), ar.Weight, reportWeights[a], c.Replay)
						}
						if ar.State != worst[a] {
							t.Errorf("%s: %v report state %v, want worst per-shard state %v (replay: %s)",
								tag, core.Arm(a), ar.State, worst[a], c.Replay)
						}
					}
				}
			}
		})
	}
}

// TestShardSingletons pins the other degenerate decomposition: every loaded
// edge isolated, so the instance shatters into n singleton shards. All
// tasks fit, so the sharded solve must schedule every one of them.
func TestShardSingletons(t *testing.T) {
	const n = 9
	in := &model.Instance{Capacity: make([]int64, 2*n-1)}
	for e := range in.Capacity {
		in.Capacity[e] = 8
	}
	for i := 0; i < n; i++ {
		in.Tasks = append(in.Tasks, model.Task{ID: i, Start: 2 * i, End: 2*i + 1, Demand: 4, Weight: int64(10 + i)})
	}
	res, err := core.Solve(in, core.Params{Shard: shard.Options{Verify: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards == nil || res.Shards.Shards != n || res.Shards.Completed != n {
		t.Fatalf("shard report %+v, want %d singleton shards completed", res.Shards, n)
	}
	if res.Shards.LargestTasks != 1 {
		t.Errorf("LargestTasks = %d, want 1", res.Shards.LargestTasks)
	}
	if err := oracle.CheckSAP(in, res.Solution); err != nil {
		t.Fatal(err)
	}
	if got, want := res.Solution.Len(), n; got != want {
		t.Errorf("scheduled %d tasks, want all %d", got, want)
	}
	mono, err := core.Solve(in, core.Params{Shard: shard.Options{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution.Weight() != mono.Solution.Weight() {
		t.Errorf("sharded weight %d != monolithic weight %d", res.Solution.Weight(), mono.Solution.Weight())
	}
}

// TestShardCancelMidScatter cancels the context after two shards have been
// dispatched (deterministically, via the shard/solve fault site) and
// asserts the partial-result contract: no error, a feasible solution
// covering the completed shards, and a Degraded SolveReport whose shard
// report says what was lost.
func TestShardCancelMidScatter(t *testing.T) {
	cfg := gen.ArchipelagoConfig{Seed: 805, Islands: 6, IslandEdges: 5, GapEdges: 2, TasksPerIsland: 8, CapLo: 32, CapHi: 129, Class: gen.Mixed}
	in := gen.Archipelago(cfg)
	plan := faultinject.NewPlan(faultinject.Injection{
		Site: "shard/solve", Kind: faultinject.KindCancel, After: 2, Once: true,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan.SetCancel(cancel)
	deactivate := faultinject.Activate(plan)
	res, err := core.SolveCtx(ctx, in, core.Params{Workers: 1})
	deactivate()
	if err != nil {
		t.Fatalf("partial solve errored: %v (replay: %s)", err, cfg.Replay())
	}
	if !plan.Triggered("shard/solve") {
		t.Fatal("cancel injection never fired")
	}
	if res.Shards == nil {
		t.Fatalf("no shard report (replay: %s)", cfg.Replay())
	}
	if res.Shards.Completed == 0 || res.Shards.Completed >= res.Shards.Shards {
		t.Fatalf("shard report %+v, want a strict partial completion", res.Shards)
	}
	if !res.Shards.Degraded() {
		t.Error("shard report not degraded despite lost shards")
	}
	if res.Report == nil || !res.Report.Degraded {
		t.Errorf("SolveReport = %+v, want Degraded", res.Report)
	}
	if err := oracle.CheckSAP(in, res.Solution); err != nil {
		t.Errorf("partial solution infeasible: %v", err)
	}
	if res.Solution.Weight() <= 0 {
		t.Errorf("partial solution weight %d, want > 0 from the completed shards", res.Solution.Weight())
	}
}

// TestShardCapacityNoMutation is the copy-on-write regression for the
// contract sharding leans on: a sharded solve works entirely on capacity
// windows shared with the parent instance, so the parent's capacity slice
// must come back bit-identical.
func TestShardCapacityNoMutation(t *testing.T) {
	for _, c := range shardCases() {
		snapshot := append([]int64(nil), c.In.Capacity...)
		if _, err := core.Solve(c.In, core.Params{Shard: shard.Options{Verify: true}}); err != nil {
			t.Fatalf("%s: %v (replay: %s)", c.Name, err, c.Replay)
		}
		if !reflect.DeepEqual(c.In.Capacity, snapshot) {
			t.Errorf("%s: sharded solve mutated the parent capacity slice (replay: %s)", c.Name, c.Replay)
		}
	}
}
