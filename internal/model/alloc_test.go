package model_test

import (
	"bytes"
	"testing"

	"sapalloc/internal/core"
	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/scratch"
)

// TestAllocsDecodeJSON pins the allocation count of the serving layer's
// decode on a document the size of the benchmark's hot-repeat bodies (400
// tasks, 64 edges): the scanner's capacity and task slices and the
// Instance. Validate finds duplicate IDs by sorting them in pooled memory,
// so it adds nothing. The encoding/json kind probe and decode that
// DecodeJSON replaced made 59 allocations on this document, so a change
// that pushes plain documents off the scanner overshoots the budget.
func TestAllocsDecodeJSON(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	var doc bytes.Buffer
	if err := gen.MemTrace(gen.MemTraceConfig{Seed: 1, Slots: 64, Objects: 400}).WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	const budget = 3
	got := testing.AllocsPerRun(20, func() {
		if _, _, err := model.DecodeJSON(doc.Bytes()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DecodeJSON/400tasks: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("DecodeJSON/400tasks: %.1f allocs/op exceeds budget %d", got, budget)
	}
}

// TestAllocsValidSAP pins the feasibility check the serving layer runs on
// every path solve and session allocation, here on a cold-archipelago
// sized solve (32 islands, 320 tasks): its ID matching and its sweep sort
// in pooled memory, so a warm check allocates nothing. The map-based check
// it replaced allocated two maps and a sorted copy of the placements.
func TestAllocsValidSAP(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	in := gen.Archipelago(gen.ArchipelagoConfig{Seed: 3, Islands: 32, IslandEdges: 8, GapEdges: 2, TasksPerIsland: 10, Class: gen.Mixed})
	res, err := core.Solve(in, core.Params{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution.Len() == 0 {
		t.Fatal("empty solution checks nothing")
	}
	const budget = 0
	got := testing.AllocsPerRun(20, func() {
		if err := model.ValidSAP(in, res.Solution); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ValidSAP/archipelago-320: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("ValidSAP/archipelago-320: %.1f allocs/op exceeds budget %d", got, budget)
	}
}
