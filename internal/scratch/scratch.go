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
//   - An Arena is single-goroutine. par.Run, the solver's one fork-join,
//     enforces this: when its items (shards, arms, classes) run
//     concurrently, each worker gets its own pooled Arena attached with
//     With and reset between its items, and items run one after another
//     share the caller's. A new fan-out goes through par.Run rather than
//     handing a ctx-carried Arena to goroutines of its own.
//   - Arena-backed memory must not escape the solve that grabbed it.
//     Results handed to callers (Solutions, reports) are always built from
//     freshly allocated memory.
//   - Reuse is confined to a single solve; cross-request reuse goes only
//     through the package's sync.Pool (Get/Put), never through retained
//     references.
//
// Grabbed slices hold arbitrary bytes ("dirty"): callers must fully
// initialise what they read. SetPoison(true) makes Get, Reset and Put
// overwrite all retained chunks with a sentinel pattern, so tests catch
// both stale-buffer reads (assuming zeroed memory) and use-after-Put
// escapes.
//
// Besides its built-in slabs (integers, floats, booleans, tasks and
// placements) an Arena hands out any element type a package registers as a
// Kind, so solver-private records live in the arena too.
package scratch

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"sapalloc/internal/model"
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
	i64   slab[int64]
	i32   slab[int32]
	ints  slab[int]
	b     slab[bool]
	u64   slab[uint64]
	f64   slab[float64]
	tasks slab[model.Task]
	pls   slab[model.Placement]
	kinds []kindSlab // indexed by Kind id; nil until the kind is first used
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

// Float64s returns a length-n scratch slice with arbitrary contents.
func (a *Arena) Float64s(n int) []float64 { return grab(&a.f64, n) }

// Float64sZero returns a length-n zeroed scratch slice.
func (a *Arena) Float64sZero(n int) []float64 { return grabZero(&a.f64, n) }

// Tasks returns a length-n scratch slice with arbitrary contents.
func (a *Arena) Tasks(n int) []model.Task { return grab(&a.tasks, n) }

// Placements returns a length-n scratch slice with arbitrary contents.
func (a *Arena) Placements(n int) []model.Placement { return grab(&a.pls, n) }

// Reset rewinds every slab so all previously grabbed slices are up for
// reuse, and poisons them when SetPoison is on. Grabbed slices must not be
// used afterwards.
func (a *Arena) Reset() {
	reset(&a.i64)
	reset(&a.i32)
	reset(&a.ints)
	reset(&a.b)
	reset(&a.u64)
	reset(&a.f64)
	reset(&a.tasks)
	reset(&a.pls)
	for _, k := range a.kinds {
		if k != nil {
			k.reset()
		}
	}
	if poisonOn.Load() {
		a.Poison()
	}
}

// Poison overwrites every retained chunk with the sentinel pattern. Tests
// use it (via SetPoison) to surface code that reads scratch memory it never
// initialised or that escaped a solve. Floats are poisoned with a NaN,
// which fails every comparison and spreads through arithmetic.
func (a *Arena) Poison() {
	poison(&a.i64, int64(-0x5A5A5A5A5A5A5A5B)) // 0xA5A5... as int64
	poison(&a.i32, int32(-0x5A5A5A5B))
	poison(&a.ints, int(-0x5A5A5A5B))
	poison(&a.b, true)
	poison(&a.u64, uint64(0xA5A5A5A5A5A5A5A5))
	poison(&a.f64, math.Float64frombits(0x7FFA5A5A5A5A5A5A))
	poison(&a.tasks, poisonTask)
	poison(&a.pls, model.Placement{Task: poisonTask, Height: -0x5A5A5A5A5A5A5A5B})
	for _, k := range a.kinds {
		if k != nil {
			k.poison()
		}
	}
}

// poisonTask is an invalid task: negative ID, an empty reversed interval
// and negative demand and weight.
var poisonTask = model.Task{
	ID: -0x5A5A5A5B, Start: 0x5A5A5A5A, End: -0x5A5A5A5B,
	Demand: -0x5A5A5A5A5A5A5A5B, Weight: -0x5A5A5A5A5A5A5A5B,
}

// Kind is an element type an Arena hands out beyond its built-in slabs.
// Packages declare their kinds once, as package-level variables, and grab
// with Make like with the built-in slabs; every Arena keeps one slab per
// kind. Kinds are meant for plain records: chunks are retained by the pool,
// so an element pointing outside the arena keeps that memory alive until
// it is overwritten.
type Kind[T any] struct {
	id     int
	poison T
}

var kindCount atomic.Int32

// NewKind registers an element type. SetPoison fills its chunks with the
// poison value, which should be a record no solver would ever build.
func NewKind[T any](poison T) *Kind[T] {
	return &Kind[T]{id: int(kindCount.Add(1)) - 1, poison: poison}
}

// Make returns a length-n slice of the kind from the arena, with arbitrary
// contents.
func (k *Kind[T]) Make(a *Arena, n int) []T { return grab(k.slab(a), n) }

// MakeZero is Make with the slice cleared.
func (k *Kind[T]) MakeZero(a *Arena, n int) []T { return grabZero(k.slab(a), n) }

func (k *Kind[T]) slab(a *Arena) *slab[T] {
	for len(a.kinds) <= k.id {
		a.kinds = append(a.kinds, nil)
	}
	s, ok := a.kinds[k.id].(*typedSlab[T])
	if !ok {
		s = &typedSlab[T]{poisonValue: k.poison}
		a.kinds[k.id] = s
	}
	return &s.slab
}

// kindSlab is the arena's view of one kind's slab.
type kindSlab interface {
	reset()
	poison()
}

type typedSlab[T any] struct {
	slab[T]
	poisonValue T
}

func (s *typedSlab[T]) reset()  { reset(&s.slab) }
func (s *typedSlab[T]) poison() { poison(&s.slab, s.poisonValue) }

var pool = sync.Pool{New: func() any { return new(Arena) }}

var poisonOn atomic.Bool

// SetPoison toggles test poisoning: when on, every Get, Reset and Put
// fills the arena's retained memory with the sentinel pattern. Intended
// for tests (the difftest scratch-reuse matrix runs the whole solver
// matrix under it); it is not request-safe to toggle concurrently with
// solves that expect a fixed setting.
func SetPoison(on bool) { poisonOn.Store(on) }

// Poisoning reports whether test poisoning is enabled.
func Poisoning() bool { return poisonOn.Load() }

// Get returns a reset Arena from the pool (poisoned when SetPoison is
// on). Pair with Put.
func Get() *Arena {
	a := pool.Get().(*Arena)
	a.Reset()
	return a
}

// Put recycles an Arena; Put(nil) does nothing. The caller must not use
// the arena, or any slice grabbed from it, afterwards. When SetPoison is on
// the memory is poisoned immediately, so use-after-Put shows up at the
// point of use.
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

// Attach is Acquire for a caller that also hands the arena down: the
// returned context carries the arena. As with Acquire, owned is the pooled
// arena the caller must Put, and nil when ctx already carried one.
func Attach(ctx context.Context) (_ context.Context, a, owned *Arena) {
	if a, ok := From(ctx); ok {
		return ctx, a, nil
	}
	a = Get()
	return With(ctx, a), a, a
}

// Acquire returns the context's arena when one is attached, and otherwise
// a pooled arena. owned is what the caller hands to Put after its last use
// of arena-backed memory: the pooled arena, or nil when the arena was
// borrowed from ctx (the attacher owns it, and Put(nil) does nothing).
// Returning the arena rather than a release closure keeps the call free of
// allocations.
func Acquire(ctx context.Context) (a, owned *Arena) {
	if a, ok := From(ctx); ok {
		return a, nil
	}
	a = Get()
	return a, a
}
