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

func TestForEachRunsAll(t *testing.T) {
	const n = 1000
	var count int64
	hit := make([]int32, n)
	err := ForEach(n, 8, func(i int) error {
		atomic.AddInt64(&count, 1)
		atomic.AddInt32(&hit[i], 1)
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if count != n {
		t.Fatalf("ran %d of %d", count, n)
	}
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestForEachSequentialFallback(t *testing.T) {
	order := []int{}
	err := ForEach(5, 1, func(i int) error {
		order = append(order, i) // safe: single worker
		return nil
	})
	if err != nil {
		t.Fatalf("%v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order violated: %v", order)
		}
	}
}

func TestForEachFirstErrorInIndexOrder(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := ForEach(10, 4, func(i int) error {
		switch i {
		case 3:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("want first error (index 3), got %v", err)
	}
}

func TestForEachSequentialStopsAtError(t *testing.T) {
	ran := 0
	boom := errors.New("boom")
	err := ForEach(10, 1, func(i int) error {
		ran++
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran != 3 {
		t.Fatalf("err=%v ran=%d", err, ran)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("panic not propagated")
		}
		if s, ok := r.(string); !ok || s != "kaboom" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	_ = ForEach(10, 4, func(i int) error {
		if i == 5 {
			panic("kaboom")
		}
		return nil
	})
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(0, 4, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatalf("%v", err)
	}
}

func TestMapOrdered(t *testing.T) {
	out, err := Map(100, 8, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatalf("%v", err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	if _, err := Map(10, 4, func(i int) (int, error) {
		if i == 4 {
			return 0, boom
		}
		return i, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

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

// BenchmarkForEachDispatch isolates the dispatch overhead of the fork-join
// substrate: items are nearly free (one atomic add of caller work), so
// ns/op ≈ per-item scheduling cost. small-n measures the goroutine spin-up
// amortization, large-n the steady-state claim cost.
func BenchmarkForEachDispatch(b *testing.B) {
	for _, bc := range []struct {
		name       string
		n, workers int
	}{
		{"small-n16/workers4", 16, 4},
		{"large-n65536/workers4", 65536, 4},
		{"large-n65536/workers0", 65536, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var sink int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = ForEach(bc.n, bc.workers, func(j int) error {
					atomic.AddInt64(&sink, int64(j))
					return nil
				})
			}
		})
	}
}

func TestForEachPanicDeterministicLowestIndex(t *testing.T) {
	// Every item panics with its own index. Item 0 is always the first
	// index claimed, so the re-raised panic must be 0 on every run.
	for rep := 0; rep < 50; rep++ {
		got := func() (v any) {
			defer func() { v = recover() }()
			_ = ForEach(100, 8, func(i int) error { panic(i) })
			return nil
		}()
		if got != 0 {
			t.Fatalf("rep %d: re-raised panic from index %v, want 0", rep, got)
		}
	}
}

func TestForEachPanicStopsDispatch(t *testing.T) {
	const n = 100_000
	var ran atomic.Int64
	func() {
		defer func() { _ = recover() }()
		_ = ForEach(n, 4, func(i int) error {
			ran.Add(1)
			if i == 0 {
				panic("stop")
			}
			return nil
		})
	}()
	// After the panic at item 0 the stop flag halts claiming; only items
	// already in flight (≈ worker count) may still finish.
	if got := ran.Load(); got >= n/2 {
		t.Fatalf("dispatch did not stop after panic: %d of %d items ran", got, n)
	}
}

func TestForEachCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		called := false
		err := ForEachCtx(ctx, 10, w, func(i int) error { called = true; return nil })
		if !saperr.IsCancelled(err) {
			t.Fatalf("workers=%d: want ErrCancelled, got %v", w, err)
		}
		if w == 1 && called {
			t.Fatal("sequential path ran an item under a dead context")
		}
	}
}

func TestForEachCtxCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	const n = 100_000
	err := ForEachCtx(ctx, n, 4, func(i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !saperr.IsCancelled(err) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if got := ran.Load(); got >= n/2 {
		t.Fatalf("dispatch did not stop after cancel: %d of %d items ran", got, n)
	}
}

func TestForEachCtxErrorBeatsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := ForEachCtx(ctx, 8, 2, func(i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("fn error at index 0 should win, got %v", err)
	}
}

func TestForEachCtxCompletesWithLiveContext(t *testing.T) {
	var ran atomic.Int64
	err := ForEachCtx(context.Background(), 500, 8, func(i int) error {
		ran.Add(1)
		return nil
	})
	if err != nil || ran.Load() != 500 {
		t.Fatalf("err=%v ran=%d", err, ran.Load())
	}
}

func TestMapCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := MapCtx(ctx, 10, 4, func(i int) (int, error) { return i, nil })
	if !saperr.IsCancelled(err) || out != nil {
		t.Fatalf("out=%v err=%v", out, err)
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
