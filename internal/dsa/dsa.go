// Package dsa implements the dynamic-storage-allocation substrate of the
// library: contiguous first-fit packing of tasks into a bounded strip, the
// UFPP→SAP strip conversion used by the small-task algorithm (the library's
// stand-in for Lemma 4 of the paper, which cites the DSA algorithm of
// Buchsbaum et al.), and the gravity normaliser of Observation 11.
package dsa

import (
	"cmp"
	"context"
	"slices"
	"sort"

	"sapalloc/internal/intervals"
	"sapalloc/internal/model"
	"sapalloc/internal/scratch"
)

// Order selects the insertion order used by first-fit packing.
type Order int

const (
	// ByStart inserts tasks by increasing left endpoint — the classic DSA
	// order with the best empirical makespan.
	ByStart Order = iota
	// ByDensity inserts tasks by decreasing weight/demand ratio, which
	// maximises retained weight when the ceiling forces drops.
	ByDensity
	// ByInput keeps the caller's order.
	ByInput
)

// OrderedTasks returns a copy of tasks arranged according to ord; it is the
// insertion order used by the first-fit packers, exported for consumers
// that run their own placement loop (e.g. the min-stretch extension).
func OrderedTasks(tasks []model.Task, ord Order) []model.Task {
	return orderTasks(tasks, ord)
}

// orderTasks returns a copy of tasks arranged according to ord.
func orderTasks(tasks []model.Task, ord Order) []model.Task {
	return sortTasks(append([]model.Task(nil), tasks...), ord)
}

// sortTasks arranges tasks in place according to ord and returns them.
// Sorting is stable with ID tie-breaks so results are deterministic.
func sortTasks(tasks []model.Task, ord Order) []model.Task {
	switch ord {
	case ByStart:
		slices.SortStableFunc(tasks, func(p, q model.Task) int {
			if p.Start != q.Start {
				return cmp.Compare(p.Start, q.Start)
			}
			if p.End != q.End {
				return cmp.Compare(q.End, p.End)
			}
			return cmp.Compare(p.ID, q.ID)
		})
	case ByDensity:
		slices.SortStableFunc(tasks, func(p, q model.Task) int {
			// w_p/d_p > w_q/d_q without division.
			lp := p.Weight * q.Demand
			lq := q.Weight * p.Demand
			if lp != lq {
				return cmp.Compare(lq, lp)
			}
			return cmp.Compare(p.ID, q.ID)
		})
	}
	return tasks
}

// placed is an internal record of an allocated rectangle.
type placed struct {
	start, end int
	bottom     int64
	top        int64
}

var placedKind = scratch.NewKind(placed{start: 0x5A5A5A5A, end: -0x5A5A5A5B, bottom: -0x5A5A5A5B, top: -0x5A5A5A5B})

// packer holds a first-fit packing in progress. Its buffers come from an
// arena, sized for n placements, and are reused across placements so the
// per-task hot path does not allocate; the former per-call sort.Slice is
// an insertion sort over plain int64 heights (same order for any sort).
type packer struct {
	rects []placed
	ov    []placed
	cand  []int64
}

func newPacker(a *scratch.Arena, n int) packer {
	return packer{rects: placedKind.Make(a, n)[:0], ov: placedKind.Make(a, n)[:0], cand: a.Int64s(n + 1)[:0]}
}

func (p *packer) place(start, end int, bottom, top int64) {
	p.rects = append(p.rects, placed{start: start, end: end, bottom: bottom, top: top})
}

// lowestFreeSlot returns the lowest height h ≥ 0 such that [h, h+demand)
// does not intersect any placed rectangle whose interval overlaps
// [start, end). Candidate heights are 0 and the tops of overlapping
// rectangles, which is sufficient: the lowest feasible height is always one
// of them.
func (p *packer) lowestFreeSlot(start, end int, demand int64) int64 {
	overlapping := p.ov[:0]
	for _, r := range p.rects {
		if r.start < end && start < r.end {
			overlapping = append(overlapping, r)
		}
	}
	candidates := append(p.cand[:0], 0)
	for _, r := range overlapping {
		candidates = append(candidates, r.top)
	}
	for i := 1; i < len(candidates); i++ {
		v := candidates[i]
		j := i - 1
		for j >= 0 && candidates[j] > v {
			candidates[j+1] = candidates[j]
			j--
		}
		candidates[j+1] = v
	}
	p.ov, p.cand = overlapping[:0], candidates[:0]
	for _, h := range candidates {
		ok := true
		for _, r := range overlapping {
			if h < r.top && r.bottom < h+demand {
				ok = false
				break
			}
		}
		if ok {
			return h
		}
	}
	// Unreachable: the candidate max(top) is always free.
	return candidates[len(candidates)-1]
}

// PackStrip packs tasks into a uniform strip [0, ceiling) by first-fit
// contiguous allocation in the given order. Tasks that cannot be placed
// below the ceiling are returned in dropped. The returned solution is always
// a feasible SAP solution for any instance whose capacities are ≥ ceiling on
// the tasks' edges.
func PackStrip(tasks []model.Task, ceiling int64, ord Order) (sol *model.Solution, dropped []model.Task) {
	return PackStripCtx(context.Background(), tasks, ceiling, ord)
}

// PackStripCtx is PackStrip under a context, polled every 256 placements.
// On cancellation the tasks not yet placed are moved to dropped — the
// partial packing is a feasible strip solution in its own right.
func PackStripCtx(ctx context.Context, tasks []model.Task, ceiling int64, ord Order) (sol *model.Solution, dropped []model.Task) {
	a, owned := scratch.Acquire(ctx)
	defer scratch.Put(owned)
	items, dropped := packStripIn(ctx, a, tasks, ceiling, ord, nil, nil)
	return &model.Solution{Items: items}, dropped
}

// packStripIn is PackStripCtx with its order and packer in the arena a. It
// appends the placements to items and the dropped tasks to dropped.
func packStripIn(ctx context.Context, a *scratch.Arena, tasks []model.Task, ceiling int64, ord Order, items []model.Placement, dropped []model.Task) ([]model.Placement, []model.Task) {
	pk := newPacker(a, len(tasks))
	done := ctx.Done()
	ordered := a.Tasks(len(tasks))
	copy(ordered, tasks)
	sortTasks(ordered, ord)
	for i, t := range ordered {
		if done != nil && i&255 == 0 && ctx.Err() != nil {
			dropped = append(dropped, ordered[i:]...)
			break
		}
		if t.Demand > ceiling {
			dropped = append(dropped, t)
			continue
		}
		h := pk.lowestFreeSlot(t.Start, t.End, t.Demand)
		if h+t.Demand > ceiling {
			dropped = append(dropped, t)
			continue
		}
		pk.place(t.Start, t.End, h, h+t.Demand)
		items = append(items, model.Placement{Task: t, Height: h})
	}
	return items, dropped
}

// PackStripUnbounded packs all tasks into an unbounded strip by first-fit in
// the given order and returns the solution plus its makespan (the DSA
// objective). No task is ever dropped.
func PackStripUnbounded(tasks []model.Task, ord Order) (*model.Solution, int64) {
	sol := &model.Solution{}
	a := scratch.Get()
	defer scratch.Put(a)
	pk := newPacker(a, len(tasks))
	var makespan int64
	for _, t := range orderTasks(tasks, ord) {
		h := pk.lowestFreeSlot(t.Start, t.End, t.Demand)
		pk.place(t.Start, t.End, h, h+t.Demand)
		sol.Items = append(sol.Items, model.Placement{Task: t, Height: h})
		if h+t.Demand > makespan {
			makespan = h + t.Demand
		}
	}
	return sol, makespan
}

// ConvertResult reports the outcome of a UFPP→SAP strip conversion.
type ConvertResult struct {
	Solution *model.Solution
	Dropped  []model.Task
	// RetainedWeight / InputWeight quantify the conversion loss (the
	// (1−4δ) factor of Lemma 4 in the paper).
	RetainedWeight int64
	InputWeight    int64
}

// RetainedFraction returns RetainedWeight / InputWeight (1 for empty input).
func (c ConvertResult) RetainedFraction() float64 {
	if c.InputWeight == 0 {
		return 1
	}
	return float64(c.RetainedWeight) / float64(c.InputWeight)
}

// ConvertToStrip converts a feasible UFPP task set into a SAP solution
// confined to the strip [0, ceiling). It tries the ByStart and ByDensity
// first-fit orders and returns the packing with the larger retained weight.
// This is the library's substitute for Lemma 4 of the paper (the
// Buchsbaum-et-al.-based transformation): for δ-small tasks whose UFPP load
// is at most the ceiling, the measured retained fraction is expected to be
// at least 1−4δ, and the experiment harness verifies exactly that.
func ConvertToStrip(tasks []model.Task, ceiling int64) ConvertResult {
	return ConvertToStripCtx(context.Background(), tasks, ceiling)
}

// ConvertToStripCtx is ConvertToStrip under a context; a cancelled order
// trial keeps whatever it packed, so the result is always feasible.
func ConvertToStripCtx(ctx context.Context, tasks []model.Task, ceiling int64) ConvertResult {
	a, owned := scratch.Acquire(ctx)
	defer scratch.Put(owned)
	items, dropped, w := ConvertToStripIn(ctx, a, tasks, ceiling, a.Placements(len(tasks))[:0])
	sol := &model.Solution{}
	if len(items) > 0 {
		sol.Items = slices.Clone(items)
	}
	if len(dropped) > 0 {
		dropped = slices.Clone(dropped)
	} else {
		dropped = nil
	}
	return ConvertResult{Solution: sol, Dropped: dropped, RetainedWeight: w, InputWeight: model.WeightOf(tasks)}
}

// ConvertToStripIn is ConvertToStripCtx for a caller that keeps the packing
// in its arena: it appends the heavier first-fit packing to items (ByStart
// on ties) and returns it with the tasks it dropped and its weight. Every
// buffer, and dropped, lives in a; items grows only when it lacks the room
// for len(tasks) more placements.
func ConvertToStripIn(ctx context.Context, a *scratch.Arena, tasks []model.Task, ceiling int64, items []model.Placement) ([]model.Placement, []model.Task, int64) {
	base := len(items)
	items = slices.Grow(items, len(tasks))
	items, dropped := packStripIn(ctx, a, tasks, ceiling, ByStart, items, a.Tasks(len(tasks))[:0])
	retained := (&model.Solution{Items: items[base:]}).Weight()
	alt, altDropped := packStripIn(ctx, a, tasks, ceiling, ByDensity, a.Placements(len(tasks))[:0], a.Tasks(len(tasks))[:0])
	if w := (&model.Solution{Items: alt}).Weight(); w > retained {
		items = append(items[:base], alt...)
		dropped, retained = altDropped, w
	}
	return items, dropped, retained
}

// Gravity lowers every placement of sol as far as possible and returns a new
// solution realising Observation 11 of the paper: every task either sits at
// height 0 or its bottom touches the top of another task with an
// intersecting path. The task set, the weights, and feasibility are
// preserved; no height ever increases. Processing is in ascending original
// height (ID tie-break), which a single pass provably compacts.
func Gravity(sol *model.Solution) *model.Solution {
	items := append([]model.Placement(nil), sol.Items...)
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].Height != items[j].Height {
			return items[i].Height < items[j].Height
		}
		return items[i].Task.ID < items[j].Task.ID
	})
	out := &model.Solution{Items: make([]model.Placement, 0, len(items))}
	a := scratch.Get()
	defer scratch.Put(a)
	pk := newPacker(a, len(items))
	for _, p := range items {
		h := pk.lowestFreeSlot(p.Task.Start, p.Task.End, p.Task.Demand)
		if h > p.Height {
			// Cannot happen (see package tests): keep the original height
			// to preserve feasibility in the presence of ties.
			h = p.Height
		}
		pk.place(p.Task.Start, p.Task.End, h, h+p.Task.Demand)
		out.Items = append(out.Items, model.Placement{Task: p.Task, Height: h})
	}
	return out
}

// IsGrounded reports whether the solution satisfies the Observation 11
// property: each task has height 0 or its bottom equals the top of another
// scheduled task whose path intersects it.
func IsGrounded(sol *model.Solution) bool {
	for i, p := range sol.Items {
		if p.Height == 0 {
			continue
		}
		supported := false
		for j, q := range sol.Items {
			if i == j {
				continue
			}
			if p.Task.Overlaps(q.Task) && q.Height+q.Task.Demand == p.Height {
				supported = true
				break
			}
		}
		if !supported {
			return false
		}
	}
	return true
}

// PackByClasses is an alternative DSA engine in the style of the boxing
// arguments behind Lemma 4's source (Buchsbaum et al.): demands are rounded
// up to powers of two, each class is packed by optimal interval-graph
// coloring (tasks of one class have equal rounded height, so colors are
// horizontal lanes), and the classes are stacked as bands. It trades some
// makespan for a very regular layout; experiment E17 quantifies the trade
// against plain first-fit.
func PackByClasses(tasks []model.Task) (*model.Solution, int64) {
	if len(tasks) == 0 {
		return &model.Solution{}, 0
	}
	classes := map[int][]model.Task{}
	maxClass := 0
	for _, t := range tasks {
		c := ceilLog2(t.Demand)
		classes[c] = append(classes[c], t)
		if c > maxClass {
			maxClass = c
		}
	}
	sol := &model.Solution{}
	var base int64
	// Stack the tallest class first: big lanes at the bottom keep the
	// makespan bound tight.
	for c := maxClass; c >= 0; c-- {
		members := classes[c]
		if len(members) == 0 {
			continue
		}
		ivs := make([]intervals.Interval, len(members))
		for i, t := range members {
			ivs[i] = intervals.Interval{Start: t.Start, End: t.End}
		}
		colors, numColors := intervals.GreedyColor(ivs)
		laneHeight := int64(1) << uint(c)
		for i, t := range members {
			sol.Items = append(sol.Items, model.Placement{
				Task:   t,
				Height: base + int64(colors[i])*laneHeight,
			})
		}
		base += int64(numColors) * laneHeight
	}
	return sol, base
}

// ceilLog2 returns ⌈log2 v⌉ for v ≥ 1.
func ceilLog2(v int64) int {
	c := 0
	for (int64(1) << uint(c)) < v {
		c++
	}
	return c
}
