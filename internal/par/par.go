// Package par provides the small deterministic-parallelism substrate used
// across the library: fork-join loops over independent work items (class
// solves, ring arms, experiment runners) with
// first-error capture, cooperative cancellation, and panic propagation.
// Results are written into caller-owned slots indexed by item, so the
// output is identical to the sequential execution regardless of scheduling.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sapalloc/internal/saperr"
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
