package difftest

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/bits"
	"sort"
	"testing"

	"sapalloc/internal/core"
	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/shard"
	"sapalloc/internal/smallsap"
	"sapalloc/internal/ufpp"
)

// TestSmallArmGolden pins the small arm's answers: the ½B-packable UFPP
// selection ufpp.HalfPackable returns for every bottleneck class, and the
// smallsap.Solve solution built from them. The inputs are what the serving
// path hands the small arm, the δ-small tasks core.Partition picks out of
// seeded small and mixed paths, MemTrace heaps and archipelago islands. The
// rounding trials draw from per-trial random streams and only compete with
// the LP-density greedy, which wins on every class here, so a new stream
// must leave these digests as they are. (Where a class also holds medium
// or large tasks, which the small arm never receives when served, a trial
// can beat the greedy, and the answer then depends on the stream.) A
// change meant to alter the small arm's answers must update the digests on
// purpose.
func TestSmallArmGolden(t *testing.T) {
	const (
		wantRound = "24308dddd0f43ba3073b0d76a4b7f3aa8d9f8d1ed4e48570698b24085a94ac07"
		wantStrip = "ac53dc3036caa4165931db40f84f86af1c1e3a4e7344b58e2d394878b4fd33ce"
	)

	var paths []*model.Instance
	for seed := int64(1); seed <= 30; seed++ {
		paths = append(paths,
			gen.Random(gen.Config{Seed: seed, Edges: 16, Tasks: 40, CapLo: 512, CapHi: 2049, Class: gen.Small}),
			gen.Random(gen.Config{Seed: seed, Edges: 24, Tasks: 56, MaxSpan: 8, Class: gen.Mixed}))
	}
	for seed := int64(1); seed <= 8; seed++ {
		paths = append(paths, gen.MemTrace(gen.MemTraceConfig{Seed: seed, Slots: 64, Objects: 400}))
	}
	for seed := int64(1); seed <= 4; seed++ {
		arch := gen.Archipelago(gen.ArchipelagoConfig{Seed: seed, Islands: 32, IslandEdges: 8, GapEdges: 2, TasksPerIsland: 10, Class: gen.Mixed})
		plan := shard.Compute(context.Background(), arch)
		for i := 0; i < plan.Len(); i++ {
			paths = append(paths, plan.SubInstance(i))
		}
	}
	insts := make([]*model.Instance, len(paths))
	for i, in := range paths {
		small, _, _ := core.Partition(in, 16)
		insts[i] = in.Restrict(small)
	}

	round, strip := sha256.New(), sha256.New()
	for i, in := range insts {
		for _, c := range bottleneckClasses(in) {
			b := int64(1) << uint(c.t)
			sel, _, err := ufpp.HalfPackable(in.Restrict(c.tasks).ClipCapacities(2*b), b, ufpp.RoundOptions{Seed: int64(i)})
			fmt.Fprintf(round, "round %d %d %v\n", i, c.t, err)
			for _, tk := range sel {
				fmt.Fprintf(round, "%d %d %d %d %d\n", tk.ID, tk.Start, tk.End, tk.Demand, tk.Weight)
			}
		}
		res, err := smallsap.Solve(in, smallsap.Params{Workers: 1})
		if err != nil {
			t.Fatalf("instance %d: smallsap: %v", i, err)
		}
		fmt.Fprintf(strip, "strip %d\n", i)
		hashPlacements(strip, res.Solution.Items)
	}
	checkDigest(t, "ufpp.HalfPackable", round, wantRound)
	checkDigest(t, "smallsap.Solve", strip, wantStrip)
}

type bottleneckClass struct {
	t     int
	tasks []model.Task
}

// bottleneckClasses groups the tasks by ⌊log2 b(j)⌋ as Strip-Pack does,
// in increasing class order, skipping the classes Strip-Pack skips (t < 1).
func bottleneckClasses(in *model.Instance) []bottleneckClass {
	byT := map[int][]model.Task{}
	bot := in.BottleneckLookup()
	for _, tk := range in.Tasks {
		if t := bits.Len64(uint64(bot.Of(tk))) - 1; t >= 1 {
			byT[t] = append(byT[t], tk)
		}
	}
	out := make([]bottleneckClass, 0, len(byT))
	for t, tasks := range byT {
		out = append(out, bottleneckClass{t: t, tasks: tasks})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].t < out[j].t })
	return out
}
