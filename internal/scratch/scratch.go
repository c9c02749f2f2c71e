// Package scratch provides per-solve reusable buffer arenas — the
// allocation-discipline substrate of the solver pipeline (see
// docs/PERFORMANCE.md, "Allocation discipline").
//
// An Arena is a set of typed bump allocators: Grab-style calls hand out
// sub-slices of retained chunks, Reset (called by Get) rewinds every chunk
// without freeing it, and nothing is ever returned individually. In steady
// state a solve therefore performs no per-call slice allocations for its
// DP tables, candidate buffers, conflict matrices or segment trees.
//
// Ownership rules (enforced by the difftest scratch-reuse matrix and the
// FuzzScratchReuse target):
//
//   - An Arena is single-goroutine: every fork-join fan-out point
//     (core arms, per-class solves, ring arms) must give each
//     worker its own Arena — Get one from the pool inside the worker body,
//     or shadow the context with With before calling down.
//   - Arena-backed memory must not escape the solve that grabbed it.
//     Results handed to callers (Solutions, reports) are always built from
//     freshly allocated memory.
//   - Reuse is confined to a single solve; cross-request reuse goes only
//     through the package's sync.Pool (Get/Put), never through retained
//     references.
//
// Grabbed slices hold arbitrary bytes ("dirty"): callers must fully
// initialise what they read. SetPoison(true) makes Get and Put overwrite
// all retained chunks with a sentinel pattern, so tests catch both
// stale-buffer reads (assuming zeroed memory) and use-after-Put escapes.
package scratch

import (
	"context"
	"sync"
	"sync/atomic"
)

// minChunk is the smallest chunk a slab allocates, in elements.
const minChunk = 256

// slab is a bump allocator over retained chunks of T.
type slab[T any] struct {
	chunks [][]T
	ci     int // index of the chunk currently being bumped
	off    int // next free element in chunks[ci]
}

// grab returns a length-n, capacity-n sub-slice of the slab with arbitrary
// contents. The returned memory stays owned by the slab and is recycled on
// the next reset.
func grab[T any](s *slab[T], n int) []T {
	if n == 0 {
		return nil
	}
	for s.ci < len(s.chunks) {
		if c := s.chunks[s.ci]; s.off+n <= len(c) {
			out := c[s.off : s.off+n : s.off+n]
			s.off += n
			return out
		}
		s.ci++
		s.off = 0
	}
	size := minChunk
	for size < n {
		size <<= 1
	}
	c := make([]T, size)
	s.chunks = append(s.chunks, c)
	s.ci = len(s.chunks) - 1
	s.off = n
	return c[0:n:n]
}

// grabZero is grab with the returned slice cleared.
func grabZero[T any](s *slab[T], n int) []T {
	out := grab(s, n)
	var zero T
	for i := range out {
		out[i] = zero
	}
	return out
}

func reset[T any](s *slab[T]) { s.ci, s.off = 0, 0 }

func poison[T any](s *slab[T], v T) {
	for _, c := range s.chunks {
		for i := range c {
			c[i] = v
		}
	}
}

// Arena is a per-solve scratch allocator. The zero value is ready to use;
// prefer Get/Put so chunk memory is recycled across solves.
type Arena struct {
	i64  slab[int64]
	i32  slab[int32]
	ints slab[int]
	b    slab[bool]
	u64  slab[uint64]
}

// Int64s returns a length-n scratch slice with arbitrary contents.
func (a *Arena) Int64s(n int) []int64 { return grab(&a.i64, n) }

// Int64sZero returns a length-n zeroed scratch slice.
func (a *Arena) Int64sZero(n int) []int64 { return grabZero(&a.i64, n) }

// Int32s returns a length-n scratch slice with arbitrary contents.
func (a *Arena) Int32s(n int) []int32 { return grab(&a.i32, n) }

// Int32sZero returns a length-n zeroed scratch slice.
func (a *Arena) Int32sZero(n int) []int32 { return grabZero(&a.i32, n) }

// Ints returns a length-n scratch slice with arbitrary contents.
func (a *Arena) Ints(n int) []int { return grab(&a.ints, n) }

// IntsZero returns a length-n zeroed scratch slice.
func (a *Arena) IntsZero(n int) []int { return grabZero(&a.ints, n) }

// Bools returns a length-n scratch slice with arbitrary contents.
func (a *Arena) Bools(n int) []bool { return grab(&a.b, n) }

// BoolsZero returns a length-n all-false scratch slice.
func (a *Arena) BoolsZero(n int) []bool { return grabZero(&a.b, n) }

// Uint64s returns a length-n scratch slice with arbitrary contents.
func (a *Arena) Uint64s(n int) []uint64 { return grab(&a.u64, n) }

// Uint64sZero returns a length-n zeroed scratch slice.
func (a *Arena) Uint64sZero(n int) []uint64 { return grabZero(&a.u64, n) }

// Reset rewinds every slab so all previously grabbed slices are up for
// reuse. Grabbed slices must not be used afterwards.
func (a *Arena) Reset() {
	reset(&a.i64)
	reset(&a.i32)
	reset(&a.ints)
	reset(&a.b)
	reset(&a.u64)
}

// Poison overwrites every retained chunk with the sentinel pattern. Tests
// use it (via SetPoison) to surface code that reads scratch memory it never
// initialised or that escaped a solve.
func (a *Arena) Poison() {
	poison(&a.i64, int64(-0x5A5A5A5A5A5A5A5B)) // 0xA5A5... as int64
	poison(&a.i32, int32(-0x5A5A5A5B))
	poison(&a.ints, int(-0x5A5A5A5B))
	poison(&a.b, true)
	poison(&a.u64, uint64(0xA5A5A5A5A5A5A5A5))
}

var pool = sync.Pool{New: func() any { return new(Arena) }}

var poisonOn atomic.Bool

// SetPoison toggles test poisoning: when on, every Get and Put fills the
// arena's retained memory with the sentinel pattern. Intended for tests
// (the difftest scratch-reuse matrix runs the whole solver matrix under
// it); it is not request-safe to toggle concurrently with solves that
// expect a fixed setting.
func SetPoison(on bool) { poisonOn.Store(on) }

// Poisoning reports whether test poisoning is enabled.
func Poisoning() bool { return poisonOn.Load() }

// Get returns a reset Arena from the pool (poisoned first when SetPoison
// is on). Pair with Put.
func Get() *Arena {
	a := pool.Get().(*Arena)
	a.Reset()
	if poisonOn.Load() {
		a.Poison()
	}
	return a
}

// Put recycles an Arena. The caller must not use the arena, or any slice
// grabbed from it, afterwards. When SetPoison is on the memory is
// poisoned immediately, so use-after-Put shows up at the point of use.
func Put(a *Arena) {
	if a == nil {
		return
	}
	if poisonOn.Load() {
		a.Poison()
	}
	pool.Put(a)
}

type ctxKey struct{}

// With attaches an Arena to the context, handing it to the solver layers
// below (they pick it up via Acquire/From). The attaching goroutine keeps
// ownership: never share a ctx carrying an arena across a fan-out — give
// each worker its own arena instead.
func With(ctx context.Context, a *Arena) context.Context {
	return context.WithValue(ctx, ctxKey{}, a)
}

// From returns the Arena attached to the context, if any.
func From(ctx context.Context) (*Arena, bool) {
	a, ok := ctx.Value(ctxKey{}).(*Arena)
	return a, ok
}

// Acquire returns the context's arena when one is attached (release is a
// no-op — the attacher owns it) and otherwise a pooled arena whose release
// returns it to the pool. Callers must invoke release exactly once, after
// their last use of arena-backed memory.
func Acquire(ctx context.Context) (*Arena, func()) {
	if a, ok := From(ctx); ok {
		return a, func() {}
	}
	a := Get()
	return a, func() { Put(a) }
}
