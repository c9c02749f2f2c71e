// Package par is the library's one fork-join over independent work items:
// Run fans out the solver's sub-problems (arms, classes, shards) and the
// experiment runners, with per-item panic containment, per-item arenas and
// typed cancellation, and returns each item's Outcome in index order, so the
// result is identical to the sequential execution regardless of scheduling.
// Workers resolves a requested worker count.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sapalloc/internal/saperr"
	"sapalloc/internal/scratch"
)

// Workers returns the effective worker count: w if positive, otherwise
// GOMAXPROCS, and never more than n.
func Workers(w, n int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Outcome is one item's result from Run.
type Outcome[T any] struct {
	// Val is what fn returned: the zero value when the item panicked or
	// never ran.
	Val T
	// Err is the item's error: fn's own, a contained panic, or a typed
	// saperr.ErrCancelled for an item that never ran.
	Err error
	// Ran reports whether the item was dispatched.
	Ran bool
	// Elapsed is the item's wall time (0 when it never ran).
	Elapsed time.Duration
}

// Run is the solver's fork-join over independent sub-problems (arms,
// classes, shards): it runs fn(ctx, i) for every i in [0, n) on at most
// workers goroutines (0 ⇒ GOMAXPROCS) and returns the outcomes in index
// order. It owns the three rules every such fan-out shares:
//
//   - A panicking item is contained (saperr.Contain) and becomes that
//     item's Err; its siblings still run.
//   - Arenas are single-goroutine. When items run concurrently, each item
//     gets its own pooled arena on its ctx (scratch.Get, scratch.With),
//     never the caller's. With one worker the items run one after another
//     on ctx as given, so callees share the caller's arena, if any,
//     through scratch.Acquire or scratch.Attach.
//   - Once ctx is done no further item is dispatched. Items that never ran
//     have Ran == false and a typed saperr.ErrCancelled.
//
// Errors never stop dispatch: the caller classifies the outcomes after the
// join, in index order, so its result is the same for every workers value.
func Run[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) []Outcome[T] {
	if n <= 0 {
		return nil
	}
	out := make([]Outcome[T], n)
	if w := Workers(workers, n); w == 1 {
		for i := range out {
			if ctx.Err() != nil {
				break
			}
			runItem(ctx, i, fn, &out[i])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					a := scratch.Get()
					runItem(scratch.With(ctx, a), i, fn, &out[i])
					scratch.Put(a)
				}
			}()
		}
		wg.Wait()
	}
	for i := range out {
		if !out[i].Ran {
			out[i].Err = saperr.Cancelled(ctx.Err())
		}
	}
	return out
}

// runItem runs one item of Run under panic containment.
func runItem[T any](ctx context.Context, i int, fn func(context.Context, int) (T, error), o *Outcome[T]) {
	start := time.Now()
	defer func() { o.Ran, o.Elapsed = true, time.Since(start) }()
	defer saperr.Contain(&o.Err)
	o.Val, o.Err = fn(ctx, i)
}
