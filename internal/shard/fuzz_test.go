package shard_test

import (
	"context"
	"reflect"
	"testing"

	"sapalloc/internal/core"
	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/oracle"
	"sapalloc/internal/shard"
)

// FuzzShardStitch is the decomposition soundness fuzzer: generate a random
// archipelago, solve it through the full combined pipeline (which takes the
// sharded path whenever a zero-load cut exists), oracle-check the stitched
// solution against the ORIGINAL instance, and require it to be byte-
// identical to the manual stitch of independent solves of each shard's
// sub-instance. With gap=0 the islands fuse and the fuzzer instead pins the
// fall-through: no decomposition, no Shards report.
func FuzzShardStitch(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(2), uint8(6), uint8(0))
	f.Add(int64(2), uint8(5), uint8(6), uint8(1), uint8(8), uint8(1))
	f.Add(int64(3), uint8(2), uint8(3), uint8(3), uint8(10), uint8(2))
	f.Add(int64(4), uint8(4), uint8(5), uint8(0), uint8(7), uint8(3)) // gap=0: no cut between islands
	f.Fuzz(func(t *testing.T, seed int64, islands, islandEdges, gapEdges, tasksPer, class uint8) {
		cfg := gen.ArchipelagoConfig{
			Seed:           seed,
			Islands:        1 + int(islands%6),
			IslandEdges:    1 + int(islandEdges%8),
			GapEdges:       int(gapEdges % 4),
			TasksPerIsland: 1 + int(tasksPer%12),
			CapLo:          16, CapHi: 65,
			Class: gen.Class(class % 4),
		}
		in := gen.Archipelago(cfg)
		replay := cfg.Replay()
		if err := in.Validate(); err != nil {
			t.Fatalf("generated instance invalid: %v (replay: %s)", err, replay)
		}

		full, err := core.Solve(in, core.Params{Shard: shard.Options{Verify: true}})
		if err != nil {
			t.Fatalf("combined solve: %v (replay: %s)", err, replay)
		}
		if oerr := oracle.CheckSAP(in, full.Solution); oerr != nil {
			t.Fatalf("stitched solution infeasible: %v (replay: %s)", oerr, replay)
		}

		plan := shard.Compute(context.Background(), in)
		if !plan.Decomposes() {
			if full.Shards != nil {
				t.Fatalf("no cut edge but Result.Shards = %+v (replay: %s)", full.Shards, replay)
			}
			return
		}
		if full.Shards == nil || full.Shards.Shards != plan.Len() {
			t.Fatalf("Result.Shards = %+v, want %d shards (replay: %s)", full.Shards, plan.Len(), replay)
		}

		// Manual stitch: solve each shard's sub-instance independently
		// through the same public pipeline and lift the pieces. The
		// determinism contract makes this byte-identical to the sharded
		// solve's stitched output.
		var want model.Solution
		var wantWeight int64
		for i := 0; i < plan.Len(); i++ {
			sub := plan.SubInstance(i)
			r, err := core.Solve(sub, core.Params{})
			if err != nil {
				t.Fatalf("shard %d solve: %v (replay: %s)", i, err, replay)
			}
			if oerr := oracle.CheckSAP(sub, r.Solution); oerr != nil {
				t.Fatalf("shard %d solution infeasible: %v (replay: %s)", i, oerr, replay)
			}
			lifted := plan.Span(i).Lift(r.Solution)
			want.Items = append(want.Items, lifted.Items...)
			wantWeight += r.Solution.Weight()
		}
		if full.Solution.Weight() != wantWeight {
			t.Fatalf("stitched weight %d, want sum of shard weights %d (replay: %s)",
				full.Solution.Weight(), wantWeight, replay)
		}
		if !reflect.DeepEqual(full.Solution.Items, want.Items) {
			t.Fatalf("stitched solution differs from manual per-shard stitch (replay: %s)\n got: %+v\nwant: %+v",
				replay, full.Solution.Items, want.Items)
		}
	})
}
