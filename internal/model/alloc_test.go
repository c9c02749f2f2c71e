package model_test

import (
	"bytes"
	"testing"

	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/scratch"
)

// TestAllocsDecodeJSON pins the allocation count of the serving layer's
// decode on a document the size of the benchmark's hot-repeat bodies (400
// tasks, 64 edges): the scanner's capacity and task slices, the Instance,
// and Validate's duplicate-ID map. The encoding/json kind probe and decode
// that DecodeJSON replaced made 59 allocations on this document, so a change
// that pushes plain documents off the scanner overshoots the budget.
func TestAllocsDecodeJSON(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	var doc bytes.Buffer
	if err := gen.MemTrace(gen.MemTraceConfig{Seed: 1, Slots: 64, Objects: 400}).WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	const budget = 6
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
