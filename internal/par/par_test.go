package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sapalloc/internal/saperr"
	"sapalloc/internal/scratch"
)

func TestWorkers(t *testing.T) {
	if Workers(0, 100) != runtime.GOMAXPROCS(0) && runtime.GOMAXPROCS(0) <= 100 {
		t.Errorf("Workers(0, 100) = %d", Workers(0, 100))
	}
	if Workers(8, 3) != 3 {
		t.Errorf("Workers(8,3) = %d", Workers(8, 3))
	}
	if Workers(-1, 0) != 1 {
		t.Errorf("Workers(-1,0) = %d", Workers(-1, 0))
	}
}

// BenchmarkRunDispatch isolates the dispatch overhead of the fork-join:
// items are nearly free (one atomic add of caller work), so ns/op ≈ per-item
// scheduling cost. small-n measures the goroutine spin-up amortization,
// large-n the steady-state claim cost, including each concurrent item's
// pooled arena.
func BenchmarkRunDispatch(b *testing.B) {
	for _, bc := range []struct {
		name       string
		n, workers int
	}{
		{"small-n16/workers4", 16, 4},
		{"large-n65536/workers4", 65536, 4},
		{"large-n65536/workers0", 65536, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var sink atomic.Int64
			fn := func(_ context.Context, j int) (struct{}, error) {
				sink.Add(int64(j))
				return struct{}{}, nil
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Run(context.Background(), bc.n, bc.workers, fn)
			}
		})
	}
}

func TestRunIndexOrder(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		outs := Run(context.Background(), 100, w, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if len(outs) != 100 {
			t.Fatalf("workers=%d: %d outcomes, want 100", w, len(outs))
		}
		for i, o := range outs {
			if !o.Ran || o.Err != nil || o.Val != i*i {
				t.Fatalf("workers=%d: outs[%d] = %+v, want Val %d", w, i, o, i*i)
			}
		}
	}
	if outs := Run(context.Background(), 0, 4, func(context.Context, int) (int, error) {
		t.Error("called")
		return 0, nil
	}); outs != nil {
		t.Fatalf("n=0: outs = %v, want nil", outs)
	}
}

func TestRunContainsPanic(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{1, 2, 8} {
		outs := Run(context.Background(), 10, w, func(_ context.Context, i int) (int, error) {
			switch i {
			case 3:
				panic("kaboom")
			case 7:
				return -1, boom
			}
			return i, nil
		})
		for i, o := range outs {
			switch i {
			case 3:
				var ie *saperr.Internal
				if !o.Ran || !errors.As(o.Err, &ie) || ie.Value != "kaboom" || o.Val != 0 {
					t.Errorf("workers=%d: panicking item = %+v, want a contained saperr.Internal", w, o)
				}
			case 7:
				if !o.Ran || !errors.Is(o.Err, boom) || o.Val != -1 {
					t.Errorf("workers=%d: failing item = %+v, want boom with its value", w, o)
				}
			default:
				if !o.Ran || o.Err != nil || o.Val != i {
					t.Errorf("workers=%d: sibling %d = %+v, want it completed", w, i, o)
				}
			}
		}
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		outs := Run(ctx, 10, w, func(context.Context, int) (int, error) {
			t.Error("an item ran under a dead context")
			return 0, nil
		})
		for i, o := range outs {
			if o.Ran || !errors.Is(o.Err, saperr.ErrCancelled) || o.Elapsed != 0 {
				t.Fatalf("workers=%d: outs[%d] = %+v, want never ran with ErrCancelled", w, i, o)
			}
		}
	}
}

func TestRunCancelMidway(t *testing.T) {
	const n = 10_000
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		outs := Run(ctx, n, w, func(context.Context, int) (int, error) {
			if ran.Add(1) == 10 {
				cancel()
			}
			return 1, nil
		})
		cancel()
		skipped := 0
		for i, o := range outs {
			switch {
			case o.Ran && (o.Err != nil || o.Val != 1):
				t.Fatalf("workers=%d: outs[%d] = %+v, want a completed item", w, i, o)
			case !o.Ran && !errors.Is(o.Err, saperr.ErrCancelled):
				t.Fatalf("workers=%d: outs[%d] = %+v, want ErrCancelled", w, i, o)
			case !o.Ran:
				skipped++
			}
		}
		if int(ran.Load())+skipped != n || skipped < n/2 {
			t.Fatalf("workers=%d: %d ran, %d skipped of %d; dispatch did not stop", w, ran.Load(), skipped, n)
		}
	}
}

// TestRunArenas: sequential items run on the caller's arena, concurrent
// ones each on a pooled arena of their own, never the caller's.
func TestRunArenas(t *testing.T) {
	caller := scratch.Get()
	defer scratch.Put(caller)
	ctx := scratch.With(context.Background(), caller)
	for _, w := range []int{1, 2, 8} {
		outs := Run(ctx, 64, w, func(ctx context.Context, _ int) (*scratch.Arena, error) {
			a, _ := scratch.From(ctx)
			return a, nil
		})
		for i, o := range outs {
			if sequential := w == 1; (o.Val == caller) != sequential || o.Val == nil {
				t.Fatalf("workers=%d: item %d saw arena %p (caller's %p)", w, i, o.Val, caller)
			}
		}
	}
}

// TestRunConcurrentArenasDistinct holds every item open until all workers
// have one in flight, so the items run at the same time: each must see an
// arena of its own.
func TestRunConcurrentArenasDistinct(t *testing.T) {
	const w = 4
	var started sync.WaitGroup
	started.Add(w)
	outs := Run(context.Background(), w, w, func(ctx context.Context, _ int) (*scratch.Arena, error) {
		started.Done()
		started.Wait()
		a, _ := scratch.From(ctx)
		return a, nil
	})
	seen := map[*scratch.Arena]bool{}
	for _, o := range outs {
		if o.Val == nil || seen[o.Val] {
			t.Fatalf("concurrent items shared or lacked an arena: %+v", outs)
		}
		seen[o.Val] = true
	}
}

func TestAllocsRunSequential(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	fn := func(_ context.Context, i int) (int, error) { return i, nil }
	got := testing.AllocsPerRun(100, func() {
		_ = Run(context.Background(), 8, 1, fn)
	})
	// The outcome slice is the only allocation.
	const budget = 1
	t.Logf("Run/sequential/8: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("Run/sequential/8: %.1f allocs/op exceeds budget %d", got, budget)
	}
}

func TestAllocsRunConcurrent(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	fn := func(_ context.Context, i int) (int, error) { return i, nil }
	got := testing.AllocsPerRun(200, func() {
		_ = Run(context.Background(), 8, 2, fn)
	})
	// The outcome slice, the claim counter, the WaitGroup, one closure per
	// worker, and one context per item carrying its pooled arena.
	const budget = 13
	t.Logf("Run/concurrent/8/workers=2: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("Run/concurrent/8/workers=2: %.1f allocs/op exceeds budget %d", got, budget)
	}
}
