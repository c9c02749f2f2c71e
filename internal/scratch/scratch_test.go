package scratch

import (
	"context"
	"math"
	"testing"
)

func TestGrabLenCapAndDisjoint(t *testing.T) {
	var a Arena
	x := a.Int64s(10)
	y := a.Int64s(20)
	if len(x) != 10 || cap(x) != 10 {
		t.Fatalf("len/cap = %d/%d, want 10/10", len(x), cap(x))
	}
	if len(y) != 20 || cap(y) != 20 {
		t.Fatalf("len/cap = %d/%d, want 20/20", len(y), cap(y))
	}
	for i := range x {
		x[i] = 1
	}
	for i := range y {
		y[i] = 2
	}
	for i, v := range x {
		if v != 1 {
			t.Fatalf("x[%d] = %d after writing y; grabs overlap", i, v)
		}
	}
	// Appending past a grabbed slice's capacity must not clobber the
	// neighbouring grab (three-index slicing pins the cap).
	x = append(x, 99)
	if y[0] != 2 {
		t.Fatalf("append to x overwrote y[0] = %d", y[0])
	}
}

func TestResetReusesMemory(t *testing.T) {
	var a Arena
	x := a.Int64s(32)
	x[0] = 7
	a.Reset()
	y := a.Int64s(32)
	if &x[0] != &y[0] {
		t.Fatalf("Reset did not recycle the chunk")
	}
}

func TestZeroVariantsClear(t *testing.T) {
	var a Arena
	x := a.Int64s(16)
	for i := range x {
		x[i] = -1
	}
	a.Reset()
	for i, v := range a.Int64sZero(16) {
		if v != 0 {
			t.Fatalf("Int64sZero[%d] = %d, want 0", i, v)
		}
	}
	b := a.BoolsZero(16)
	for i, v := range b {
		if v {
			t.Fatalf("BoolsZero[%d] = true, want false", i)
		}
	}
}

func TestGrabLargerThanChunk(t *testing.T) {
	var a Arena
	big := a.Int64s(3 * minChunk)
	if len(big) != 3*minChunk {
		t.Fatalf("len = %d", len(big))
	}
	// Follow-up small grab still works and is disjoint.
	small := a.Int64s(4)
	small[0] = 1
	big[len(big)-1] = 2
	if small[0] != 1 {
		t.Fatal("small grab overlaps big grab")
	}
}

func TestGrabZeroLength(t *testing.T) {
	var a Arena
	if s := a.Int64s(0); s != nil {
		t.Fatalf("zero-length grab = %v, want nil", s)
	}
}

func TestPoisonFillsRetainedChunks(t *testing.T) {
	var a Arena
	x := a.Int64s(8)
	for i := range x {
		x[i] = 0
	}
	a.Poison()
	for i, v := range x {
		if v == 0 {
			t.Fatalf("x[%d] still 0 after Poison", i)
		}
	}
}

func TestGetPutPoisonMode(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	a := Get()
	x := a.Int64s(4)
	for i := range x {
		x[i] = int64(i)
	}
	Put(a)
	// Use-after-Put must observe the sentinel, not the stored values.
	for i, v := range x {
		if v == int64(i) {
			t.Fatalf("x[%d] survived Put under poisoning", i)
		}
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if _, ok := From(ctx); ok {
		t.Fatal("From(Background) found an arena")
	}
	a, owned := Acquire(ctx)
	if a == nil || owned != a {
		t.Fatalf("Acquire = (%p, %p), want a pooled arena it owns", a, owned)
	}
	Put(owned)

	own := Get()
	defer Put(own)
	ctx = With(ctx, own)
	got, ok := From(ctx)
	if !ok || got != own {
		t.Fatalf("From = %p, want attached %p", got, own)
	}
	got2, owned2 := Acquire(ctx)
	if got2 != own || owned2 != nil {
		t.Fatalf("Acquire = (%p, %p), want attached %p and nothing owned", got2, owned2, own)
	}
	Put(owned2) // no-op for attached arenas; own stays usable
	if s := own.Int64s(1); len(s) != 1 {
		t.Fatal("attached arena unusable after no-op Put")
	}
	actx, a3, owned3 := Attach(ctx)
	if actx != ctx || a3 != own || owned3 != nil {
		t.Fatal("Attach under an attached arena must borrow it")
	}
	actx, a4, owned4 := Attach(context.Background())
	if got, _ := From(actx); got != a4 || owned4 != a4 {
		t.Fatal("Attach without an arena must attach and own a pooled one")
	}
	Put(owned4)
	if n := testing.AllocsPerRun(100, func() {
		_, owned := Acquire(context.Background())
		Put(owned)
	}); n != 0 && !RaceEnabled {
		t.Errorf("Acquire+Put of a pooled arena: %.1f allocs, want 0", n)
	}
}

// TestSteadyStateAllocFree pins the arena's whole point: after warm-up,
// grabbing within the retained footprint allocates nothing.
func TestSteadyStateAllocFree(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	a := Get()
	defer Put(a)
	a.Int64s(1024)
	a.Bools(4096)
	a.Reset()
	avg := testing.AllocsPerRun(100, func() {
		a.Reset()
		_ = a.Int64s(1024)
		_ = a.Bools(4096)
	})
	if avg != 0 {
		t.Fatalf("steady-state grabs allocate %.1f times per run, want 0", avg)
	}
}

type record struct {
	id    int
	value int64
}

var recordKind = NewKind(record{id: -1, value: -1})

// TestKindSlab pins the kind contract: a kind's slices come from the
// arena like the built-in ones, are recycled by Reset, zeroed by MakeZero
// and overwritten with the kind's poison value by Poison.
func TestKindSlab(t *testing.T) {
	var a Arena
	x := recordKind.Make(&a, 10)
	y := recordKind.Make(&a, 20)
	if len(x) != 10 || cap(x) != 10 || len(y) != 20 {
		t.Fatalf("len/cap = %d/%d and %d", len(x), cap(x), len(y))
	}
	x[0] = record{id: 7, value: 8}
	y[0] = record{id: 9}
	if x[0].id != 7 {
		t.Fatal("grabs of one kind overlap")
	}
	a.Reset()
	if z := recordKind.MakeZero(&a, 10); &z[0] != &x[0] || z[0] != (record{}) {
		t.Fatalf("Reset did not recycle the kind's chunk, or MakeZero did not clear it: %v", z[0])
	}
	a.Poison()
	if x[0] != (record{id: -1, value: -1}) {
		t.Fatalf("Poison left %v, want the kind's poison value", x[0])
	}
	if avg := testing.AllocsPerRun(100, func() {
		a.Reset()
		_ = recordKind.Make(&a, 30)
	}); avg != 0 && !RaceEnabled {
		t.Fatalf("steady-state kind grabs allocate %.1f times per run, want 0", avg)
	}
}

// TestModelAndFloatSlabsPoison checks the poison patterns of the float,
// task and placement slabs: a NaN fails every comparison, and a poisoned
// task has an empty reversed interval.
func TestModelAndFloatSlabsPoison(t *testing.T) {
	var a Arena
	f, tasks, pls := a.Float64sZero(4), a.Tasks(4), a.Placements(4)
	a.Poison()
	if !math.IsNaN(f[0]) {
		t.Fatalf("poisoned float = %g, want NaN", f[0])
	}
	if tasks[0].Start < tasks[0].End || pls[0].Task.Start < pls[0].Task.End {
		t.Fatalf("poisoned task %v and placement %v have a valid interval", tasks[0], pls[0])
	}
}
