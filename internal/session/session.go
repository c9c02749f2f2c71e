// Package session is the incremental serving engine for task churn: a
// long-lived Session holds a SAP instance whose tasks arrive and depart via
// deltas, and maintains the allocation with bounded recomputation instead of
// a cold solve per change.
//
// The engine leans entirely on internal/shard's exact zero-load-cut
// decomposition. Every applied delta recomputes the cut plan (an O(n+m)
// diff-array scan), classifies each shard as dirty — its edge window
// intersects the union of the changed tasks' intervals — or clean, re-solves
// only the dirty shards, and stitches the lifted per-shard solutions back in
// span order. A clean shard's solution is reused from the previous delta:
// its edge window is an unchanged maximal loaded run containing no changed
// task, so its ID-sorted sub-instance is exactly what a cold solve of the
// current task set would shard out, and the deterministic solver would
// reproduce the cached bytes. When the instance has no zero-load cut the
// delta falls through to a full core.SolveCtx of the whole path — the same
// fall-through a cold solve takes.
//
// Invariant (pinned by the difftest churn matrix): after every successful
// delta the maintained allocation is byte-identical to a fresh
// core.SolveCtx of the current task set. Deltas are atomic — a delta that
// fails validation, is cancelled, or panics leaves the session exactly as it
// was.
package session

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"sapalloc/internal/core"
	"sapalloc/internal/faultinject"
	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/par"
	"sapalloc/internal/saperr"
	"sapalloc/internal/scratch"
	"sapalloc/internal/shard"
)

// Options configures a session.
type Options struct {
	// Params configures the underlying combined solver. Params.Deadline is
	// ignored: deltas are bounded by the caller's context.
	Params core.Params
	// Full disables incremental maintenance: every delta re-solves the
	// whole task set cold. It exists for the benchmarks and difftests that
	// measure and pin the incremental engine against its own baseline.
	Full bool
}

// Delta is one batch of task arrivals and departures. Removals are applied
// before additions, so a delta may replace a task by listing its ID in both.
type Delta struct {
	Add    []model.Task
	Remove []int
}

// Result reports one applied delta.
type Result struct {
	// Solution is the maintained allocation, shared with the session's
	// internal state: treat it as read-only (Clone before mutating). Its
	// items are in span-stitch order, exactly as a cold sharded solve
	// emits them.
	Solution *model.Solution
	Weight   int64
	// Tasks is the session's task count after the delta.
	Tasks int
	// Shards is the number of zero-load-cut shards of the current instance
	// (0 when it does not decompose). Resolved + Reused == Shards on the
	// incremental path; Full marks deltas that re-solved the whole path.
	Shards     int
	Resolved   int
	Reused     int
	Full       bool
	DirtyEdges int
}

type spanKey struct{ lo, hi int }

// spanEntry caches one shard's lifted solution from the previous delta.
// tasks is a belt-and-braces guard: a reusable span must carry the same
// task count it was solved with (the window + no-dirty-edge check already
// implies the same task set).
type spanEntry struct {
	tasks int
	sol   *model.Solution
}

// Session is a single incrementally maintained instance. All methods are
// safe for concurrent use; deltas to one session serialize.
type Session struct {
	mu       sync.Mutex
	capacity []int64
	params   core.Params
	full     bool

	byID   map[int]model.Task
	tasks  []model.Task // canonical order: sorted by ID
	cache  map[spanKey]*spanEntry
	sol    *model.Solution
	weight int64
}

// New creates an empty session over the given capacity profile.
func New(capacity []int64, opts Options) (*Session, error) {
	if err := (&model.Instance{Capacity: capacity}).Validate(); err != nil {
		return nil, err
	}
	p := opts.Params
	p.Deadline = 0
	return &Session{
		capacity: append([]int64(nil), capacity...),
		params:   p,
		full:     opts.Full,
		byID:     make(map[int]model.Task),
		cache:    make(map[spanKey]*spanEntry),
		sol:      &model.Solution{},
	}, nil
}

// Apply validates and applies one delta, returning the updated allocation.
// Nothing is committed until the solve succeeds: on any error the session is
// unchanged and the delta can be retried.
func (s *Session) Apply(ctx context.Context, d Delta) (res *Result, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer saperr.Contain(&err)
	start := time.Now()
	if err := faultinject.FireErr(ctx, "session/delta"); err != nil {
		return nil, err
	}
	if err := saperr.FromContext(ctx); err != nil {
		return nil, err
	}

	next, err := s.merged(d)
	if err != nil {
		return nil, err
	}
	in := &model.Instance{Capacity: s.capacity, Tasks: next}
	if err := in.Validate(); err != nil {
		return nil, err
	}

	// The delta's dirty region: the union of the changed tasks' edge
	// intervals, merged left-to-right. A shard whose window avoids every
	// dirty interval is untouched by this delta.
	merged, dirtyEdges := s.dirtyIntervals(d)

	plan := shard.Compute(ctx, in)
	if s.full || !plan.Decomposes() {
		return s.applyFull(ctx, d, in, next, plan, dirtyEdges, start)
	}
	return s.applyIncremental(ctx, d, next, plan, merged, dirtyEdges, start)
}

// merged validates the delta against the current task set and returns the
// new ID-sorted task slice. The canonical order of a session is sorted by
// ID: the incremental engine and the cold reference solve both see exactly
// this order, so order-sensitive solver tie-breaks cannot drift.
func (s *Session) merged(d Delta) ([]model.Task, error) {
	removed := make(map[int]bool, len(d.Remove))
	for _, id := range d.Remove {
		if removed[id] {
			return nil, saperr.Input("session: task id %d removed twice in one delta", id)
		}
		if _, ok := s.byID[id]; !ok {
			return nil, saperr.Input("session: remove of unknown task id %d", id)
		}
		removed[id] = true
	}
	added := make(map[int]bool, len(d.Add))
	for _, t := range d.Add {
		if added[t.ID] {
			return nil, saperr.Input("session: task id %d added twice in one delta", t.ID)
		}
		if _, ok := s.byID[t.ID]; ok && !removed[t.ID] {
			return nil, saperr.Input("session: task id %d already present", t.ID)
		}
		added[t.ID] = true
	}
	adds := append([]model.Task(nil), d.Add...)
	sort.Slice(adds, func(i, j int) bool { return adds[i].ID < adds[j].ID })
	next := make([]model.Task, 0, len(s.tasks)+len(adds))
	ai := 0
	for _, t := range s.tasks {
		if removed[t.ID] {
			continue
		}
		for ai < len(adds) && adds[ai].ID < t.ID {
			next = append(next, adds[ai])
			ai++
		}
		next = append(next, t)
	}
	next = append(next, adds[ai:]...)
	return next, nil
}

type edgeIv struct{ lo, hi int }

// dirtyIntervals merges the changed tasks' [Start, End) intervals into a
// sorted disjoint list and returns it with the total dirty edge count.
func (s *Session) dirtyIntervals(d Delta) ([]edgeIv, int) {
	ivs := make([]edgeIv, 0, len(d.Remove)+len(d.Add))
	for _, id := range d.Remove {
		t := s.byID[id]
		ivs = append(ivs, edgeIv{t.Start, t.End})
	}
	for _, t := range d.Add {
		ivs = append(ivs, edgeIv{t.Start, t.End})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	merged := ivs[:0]
	for _, iv := range ivs {
		if n := len(merged); n > 0 && iv.lo <= merged[n-1].hi {
			if iv.hi > merged[n-1].hi {
				merged[n-1].hi = iv.hi
			}
			continue
		}
		merged = append(merged, iv)
	}
	edges := 0
	for _, iv := range merged {
		edges += iv.hi - iv.lo
	}
	return merged, edges
}

// applyFull re-solves the whole path cold — the forced-full mode, or the
// fall-through when the instance has no zero-load cut (the same fall-through
// a cold solve takes, so the bytes still match).
func (s *Session) applyFull(ctx context.Context, d Delta, in *model.Instance, next []model.Task, plan *shard.Plan, dirtyEdges int, start time.Time) (*Result, error) {
	p := s.params
	if !plan.Decomposes() {
		// The scan above already proved there is no cut; skip core's own.
		p.Shard.Disable = true
	}
	r, err := core.SolveCtx(ctx, in, p)
	if err != nil {
		return nil, err
	}
	if cerr := saperr.FromContext(ctx); cerr != nil {
		// A dying context may have degraded the solve nondeterministically
		// (time-based arm timeouts); reject the delta rather than cache a
		// result a cold solve would not reproduce.
		return nil, cerr
	}
	resolved := 1
	if plan.Decomposes() {
		resolved = plan.Len()
	}
	s.commit(d, next, make(map[spanKey]*spanEntry), r.Solution)
	obs.SessionDeltas.Inc()
	obs.SessionFullSolves.Inc()
	obs.SessionDirtyEdges.Record(int64(dirtyEdges))
	obs.SessionResolvedShards.Record(int64(resolved))
	obs.SessionReusedShards.Record(0)
	obs.SessionDeltaNs.Record(int64(time.Since(start)))
	return &Result{
		Solution: s.sol, Weight: s.weight, Tasks: len(s.tasks),
		Shards: plan.Len(), Resolved: resolved, Full: true, DirtyEdges: dirtyEdges,
	}, nil
}

// applyIncremental re-solves only the shards whose edge windows intersect
// the dirty intervals and reuses the rest from the previous delta's cache.
func (s *Session) applyIncremental(ctx context.Context, d Delta, next []model.Task, plan *shard.Plan, merged []edgeIv, dirtyEdges int, start time.Time) (*Result, error) {
	nsp := plan.Len()
	entries := make([]*spanEntry, nsp)
	errs := make([]error, nsp)
	var dirty []int
	j := 0
	for i := 0; i < nsp; i++ {
		sp := plan.Span(i)
		for j < len(merged) && merged[j].hi <= sp.Lo {
			j++
		}
		clean := j == len(merged) || !sp.Overlaps(merged[j].lo, merged[j].hi)
		if clean {
			if old, ok := s.cache[spanKey{sp.Lo, sp.Hi}]; ok && old.tasks == sp.Tasks {
				entries[i] = old
				continue
			}
		}
		dirty = append(dirty, i)
	}

	inner := s.params
	inner.Shard.Disable = true // spans are maximal loaded runs: no interior cut
	if len(dirty) > 1 {
		// Parallelism comes from the shard fan-out; keep leaf solves
		// single-threaded like the cold scatter does.
		inner.Workers = 1
		inner.Small.Workers = 1
	}
	_ = par.ForEachCtx(ctx, len(dirty), s.params.Workers, func(k int) error {
		i := dirty[k]
		sp := plan.Span(i)
		err := func() (err error) {
			defer saperr.Contain(&err)
			faultinject.Fire(ctx, "session/shard")
			a := scratch.Get()
			defer scratch.Put(a)
			r, err := core.SolveCtx(scratch.With(ctx, a), plan.SubInstance(i), inner)
			if err != nil {
				return err
			}
			entries[i] = &spanEntry{tasks: sp.Tasks, sol: sp.Lift(r.Solution)}
			return nil
		}()
		errs[i] = err
		return nil
	})
	for _, i := range dirty {
		if errs[i] != nil {
			sp := plan.Span(i)
			return nil, fmt.Errorf("session: shard [%d,%d): %w", sp.Lo, sp.Hi, errs[i])
		}
		if entries[i] == nil { // skipped: the context died before dispatch
			return nil, saperr.Cancelled(ctx.Err())
		}
	}
	if cerr := saperr.FromContext(ctx); cerr != nil {
		// Same rationale as the full path: a cancelled context may have
		// degraded a shard solve nondeterministically.
		return nil, cerr
	}

	cache := make(map[spanKey]*spanEntry, nsp)
	total := 0
	for i := 0; i < nsp; i++ {
		sp := plan.Span(i)
		cache[spanKey{sp.Lo, sp.Hi}] = entries[i]
		total += entries[i].sol.Len()
	}
	sol := &model.Solution{Items: make([]model.Placement, 0, total)}
	for i := 0; i < nsp; i++ {
		sol.Items = append(sol.Items, entries[i].sol.Items...)
	}
	s.commit(d, next, cache, sol)
	obs.SessionDeltas.Inc()
	obs.SessionIncrementalSolves.Inc()
	obs.SessionDirtyEdges.Record(int64(dirtyEdges))
	obs.SessionResolvedShards.Record(int64(len(dirty)))
	obs.SessionReusedShards.Record(int64(nsp - len(dirty)))
	obs.SessionDeltaNs.Record(int64(time.Since(start)))
	return &Result{
		Solution: s.sol, Weight: s.weight, Tasks: len(s.tasks),
		Shards: nsp, Resolved: len(dirty), Reused: nsp - len(dirty), DirtyEdges: dirtyEdges,
	}, nil
}

func (s *Session) commit(d Delta, next []model.Task, cache map[spanKey]*spanEntry, sol *model.Solution) {
	for _, id := range d.Remove {
		delete(s.byID, id)
	}
	for _, t := range d.Add {
		s.byID[t.ID] = t
	}
	s.tasks = next
	s.cache = cache
	s.sol = sol
	s.weight = sol.Weight()
}

// Solution returns the maintained allocation. It is shared with the
// session's internal state: treat it as read-only.
func (s *Session) Solution() *model.Solution {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sol
}

// Weight returns the maintained allocation's total weight.
func (s *Session) Weight() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.weight
}

// Len returns the current task count.
func (s *Session) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tasks)
}

// Tasks returns a copy of the current task set in the session's canonical
// (ID-sorted) order — exactly the instance a cold solve sees.
func (s *Session) Tasks() []model.Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]model.Task(nil), s.tasks...)
}

// Capacity returns the session's capacity profile (read-only).
func (s *Session) Capacity() []int64 { return s.capacity }

// NewID returns a fresh random session identifier (16 hex chars).
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("session: crypto/rand failed: %v", err))
	}
	return hex.EncodeToString(b[:])
}
