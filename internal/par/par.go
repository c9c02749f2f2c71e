// Package par provides the small deterministic-parallelism substrate used
// across the library: fork-join loops over independent work items. Run is
// the solver's fan-out (arms, classes, shards), with per-item panic
// containment, per-item arenas and typed cancellation; ForEach and Map serve
// the loops outside the solver (experiment runners, the MWU oracle) with
// first-error capture and panic propagation. Results land in slots indexed
// by item, so the output is identical to the sequential execution
// regardless of scheduling.
package par

import (
	"context"
	"fmt"
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

// capturedPanic wraps a recovered panic so it can be re-raised on the
// calling goroutine with the original value visible.
type capturedPanic struct {
	value any
}

func (c capturedPanic) String() string { return fmt.Sprintf("par: worker panic: %v", c.value) }

// ForEach runs fn(i) for every i in [0, n) using at most workers
// goroutines (0 ⇒ GOMAXPROCS). It returns the first error in index order.
// A panic in any worker stops dispatch (items not yet claimed never run)
// and is re-raised on the caller after all in-flight workers have stopped,
// preserving crash semantics of the sequential loop. When several in-flight
// items panic concurrently, the one with the lowest index is re-raised —
// deterministic regardless of which worker's recover ran first.
//
// Work is claimed through a shared atomic counter rather than fed one
// index at a time over an unbuffered channel, so dispatch costs one
// uncontended atomic add per item instead of a cross-goroutine rendezvous
// (see BenchmarkForEachDispatch for the difference on cheap items).
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach under a context: once ctx is done, no new items are
// claimed and the loop returns a typed saperr.ErrCancelled (unless an fn
// error at a lower index takes precedence). Items already in flight run to
// completion — fn is responsible for its own cooperative checks. Slots for
// items that never ran keep their caller-initialised values, so callers
// that tolerate partial output (e.g. per-class solvers) can merge what
// completed.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := saperr.FromContext(ctx); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var panicMu sync.Mutex
	panicIdx := -1
	var panicVal *capturedPanic
	var stop atomic.Bool // set on first panic or cancellation: stop claiming
	var next, completed atomic.Int64
	var wg sync.WaitGroup
	done := ctx.Done()
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				if done != nil {
					select {
					case <-done:
						stop.Store(true)
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							// Deterministic first-panic-wins: the
							// lowest-index panic is re-raised no matter
							// which worker observed its panic first.
							if panicIdx < 0 || i < panicIdx {
								panicIdx = i
								panicVal = &capturedPanic{value: r}
							}
							panicMu.Unlock()
							stop.Store(true)
						}
					}()
					errs[i] = fn(i)
					completed.Add(1)
				}()
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal.value)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if completed.Load() < int64(n) {
		// Dispatch stopped before covering every item; the only non-panic,
		// non-error cause is cancellation. Report it so callers know the
		// slots are partial.
		if err := saperr.FromContext(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn over [0, n) in parallel and collects the results in index
// order.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), n, workers, fn)
}

// MapCtx is Map under a context. On error (including cancellation) it
// returns a nil slice; callers that want the partial results of a
// cancelled run should use ForEachCtx with their own slots.
func MapCtx[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
		// Its own loop, not ForEachCtx: wrapping fn in a closure would
		// cost an allocation per fan-out on the sequential path.
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
