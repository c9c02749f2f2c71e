// Package largesap implements Section 6 of the paper: the (2k−1)-
// approximation for 1/k-large SAP instances.
//
// Every task j is mapped to the fixed rectangle
//
//	R(j) = [s_j, t_j) × [ℓ(j), b(j)),   ℓ(j) = b(j) − d_j,
//
// the rectangle induced by assigning j its residual height (Fig. 7). A set
// of pairwise non-intersecting rectangles is immediately a feasible SAP
// solution, so a maximum-weight independent set of R(J) is the paper's
// algorithm for large tasks (Theorem 7 computes it exactly; here a
// path-decomposition dynamic program over the edges, exact as well, plays
// that role, with a branch-and-bound fallback when the state space
// explodes). The (2k−1) guarantee follows from Lemma 16/17 — any feasible
// 1/k-large SAP solution has a (2k−2)-degenerate rectangle graph — which
// this package also implements (smallest-last coloring) so the experiments
// can verify the bound empirically.
package largesap

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"sapalloc/internal/faultinject"
	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/saperr"
	"sapalloc/internal/scratch"
)

// Rect is the fixed rectangle R(j) = [s_j, t_j) × [ℓ(j), b(j)] of a task.
// Following the paper, the horizontal extent is the half-open edge interval
// while the vertical extent is closed: two rectangles that merely touch
// vertically DO intersect (their tasks occupy adjacent storage bands).
type Rect struct {
	Task   model.Task
	Bottom int64 // ℓ(j) = b(j) − d_j
	Top    int64 // b(j)
}

// Intersects reports whether two rectangles intersect: horizontal edge
// intervals overlap (half-open) and the closed vertical intervals
// [Bottom, Top] intersect.
func (r Rect) Intersects(o Rect) bool {
	return r.Task.Overlaps(o.Task) && r.Bottom <= o.Top && o.Bottom <= r.Top
}

// RectangleOf computes R(j) for task t in the given instance.
func RectangleOf(in *model.Instance, t model.Task) Rect {
	b := in.Bottleneck(t)
	return Rect{Task: t, Bottom: b - t.Demand, Top: b}
}

// RectanglesOf computes R(j) for every task of the instance. Tasks whose
// demand exceeds their bottleneck can never be scheduled and are skipped.
// Bottlenecks come from the instance's RMQ index on large instances.
func RectanglesOf(in *model.Instance) []Rect {
	return appendRectangles(make([]Rect, 0, len(in.Tasks)), in)
}

// appendRectangles appends the rectangles RectanglesOf returns to out.
func appendRectangles(out []Rect, in *model.Instance) []Rect {
	bot := in.BottleneckLookup()
	for _, t := range in.Tasks {
		b := bot.Of(t)
		if b < t.Demand {
			continue
		}
		out = append(out, Rect{Task: t, Bottom: b - t.Demand, Top: b})
	}
	return out
}

// Options bounds the exact independent-set computation.
type Options struct {
	// MaxStates caps the number of DP states per edge before falling back
	// to branch and bound (0 = 200000).
	MaxStates int
	// MaxNodes caps the fallback branch-and-bound nodes (0 = 20 million).
	MaxNodes int64
}

func (o Options) withDefaults() Options {
	if o.MaxStates == 0 {
		o.MaxStates = 200_000
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 20_000_000
	}
	return o
}

// ErrBudget is returned when both the DP state cap and the fallback node
// budget are exhausted; the incumbent solution is still returned.
var ErrBudget = errors.New("largesap: search budget exhausted")

// Solve runs the large-task algorithm: exact maximum-weight independent set
// of the rectangle family, returned directly as a SAP solution with
// h(j) = ℓ(j). It is exact for the rectangle packing, and hence a
// (2k−1)-approximation for any 1/k-large instance by Theorem 3 of the
// paper.
func Solve(in *model.Instance, opts Options) (*model.Solution, error) {
	return SolveCtx(context.Background(), in, opts)
}

// SolveCtx is Solve under a context. On cancellation the branch-and-bound's
// feasible incumbent (possibly empty) is returned with an error wrapping
// saperr.ErrCancelled, mirroring the ErrBudget contract.
//
// The rectangles and the DP live in the context's arena (a pooled one when
// it carries none); only the returned Solution is fresh memory.
func SolveCtx(ctx context.Context, in *model.Instance, opts Options) (*model.Solution, error) {
	opts = opts.withDefaults()
	a, owned := scratch.Acquire(ctx)
	defer scratch.Put(owned)
	rects := appendRectangles(rectKind.Make(a, len(in.Tasks))[:0], in)
	ctx, endMWIS := obs.StartSpan(ctx, "largesap/mwis")
	defer endMWIS()
	faultinject.Fire(ctx, "largesap/mwis")
	chosen, err := maxWeightIndependentSetIn(ctx, a, rects, in.Edges(), opts)
	sol := &model.Solution{}
	if len(chosen) > 0 {
		sol.Items = make([]model.Placement, len(chosen))
		for k, i := range chosen {
			sol.Items[k] = model.Placement{Task: rects[i].Task, Height: rects[i].Bottom}
		}
	}
	return sol, err
}

var (
	rectKind    = scratch.NewKind(Rect{Task: model.Task{ID: -0x5A5A5A5B, Start: 0x5A5A5A5A, End: -0x5A5A5A5B}, Bottom: -0x5A5A5A5B, Top: -0x5A5A5A5B})
	dpEntryKind = scratch.NewKind(dpEntry{mask: 0xA5A5A5A5A5A5A5A5, added: 0xA5A5A5A5A5A5A5A5, weight: -0x5A5A5A5B, prevIdx: -0x5A5A5A5B})
)

// MaxWeightIndependentSet computes an exact maximum-weight independent set
// of the rectangle family by a left-to-right dynamic program whose states
// are the pairwise-disjoint subsets of rectangles crossing each edge. The
// state space is output-sensitive: for 1/k-large families few rectangles
// can cross an edge disjointly (Lemma 16), so states stay small. If the cap
// is exceeded the exact branch-and-bound fallback finishes the job. Indices
// into rects are returned.
func MaxWeightIndependentSet(rects []Rect, edges int, opts Options) ([]int, error) {
	a := scratch.Get()
	defer scratch.Put(a)
	chosen, err := maxWeightIndependentSetIn(context.Background(), a, rects, edges, opts)
	return slices.Clone(chosen), err
}

// maxWeightIndependentSetIn is MaxWeightIndependentSet under a context,
// with the DP and its answer in the arena a.
func maxWeightIndependentSetIn(ctx context.Context, a *scratch.Arena, rects []Rect, edges int, opts Options) ([]int, error) {
	opts = opts.withDefaults()
	n := len(rects)
	if n == 0 {
		return nil, nil
	}
	if n > 64 {
		return mwisBranchBound(ctx, rects, opts)
	}
	chosen, ok := mwisPathDP(ctx, a, rects, edges, opts.MaxStates)
	if ok {
		return chosen, nil
	}
	// DP overflowed its state cap or was cancelled: the branch-and-bound
	// finishes the job (and, under cancellation, immediately returns its
	// greedy-free incumbent with a typed error).
	obs.BBFallbacks.Inc()
	_, endFallback := obs.StartSpan(ctx, "largesap/exact-fallback")
	defer endFallback()
	return mwisBranchBound(ctx, rects, opts)
}

// dpEntry is one DP state: the crossing-set mask at its edge, the subset
// added at that edge, the accumulated weight, and a link to the predecessor
// state at the previous edge (-1 for the virtual root). States live in one
// append-only slab, so the full trace needs no per-edge maps and
// reconstruction is a pointer walk.
type dpEntry struct {
	mask    uint64
	added   uint64
	weight  int64
	prevIdx int32
}

// mwisPathDP is the path-decomposition DP. Returns ok=false if the state
// cap was exceeded or the context was cancelled (the DP has no usable
// partial answer: interior layers do not reach the right end of the path).
//
// All per-edge structures are reused: the mask→slab-index map is cleared
// (not reallocated) each edge, the state slab, the starter list, the
// conflict matrix and the returned indices come from the arena a, and
// ties are broken by the same total order as before — max weight, then
// smallest (prevMask, added) — which is iteration-order independent, so
// outputs are unchanged.
func mwisPathDP(ctx context.Context, a *scratch.Arena, rects []Rect, edges int, maxStates int) ([]int, bool) {
	n := len(rects)
	// CSR layout of "rectangles starting at edge e" (same per-edge order as
	// appending in index order).
	startOff := a.IntsZero(edges + 1)
	for _, r := range rects {
		startOff[r.Task.Start+1]++
	}
	for e := 0; e < edges; e++ {
		startOff[e+1] += startOff[e]
	}
	startFlat := a.Ints(n)
	fill := a.Ints(edges)
	copy(fill, startOff[:edges])
	for i, r := range rects {
		s := r.Task.Start
		startFlat[fill[s]] = i
		fill[s]++
	}
	conflict := a.BoolsZero(n * n)
	for i := 0; i < n; i++ {
		row := conflict[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			if i != j {
				row[j] = rects[i].Intersects(rects[j])
			}
		}
	}
	// The slab starts in the arena; a DP with more states outgrows it
	// onto the heap.
	entries := dpEntryKind.Make(a, 256)[:1]
	entries[0] = dpEntry{prevIdx: -1} // virtual root before edge 0
	// A layer holds at most 2^k states for k rectangles crossing an edge;
	// sizing for n keeps the few-rectangle DPs of a sharded solve small.
	idx := make(map[uint64]int32, n)
	starterBuf := a.Ints(n)
	// State under expansion, hoisted so the recursive closure is allocated
	// once per call instead of once per state.
	var (
		stStarters []int
		stKept     uint64
		stMask     uint64
		stWeight   int64
		stPrev     int32
	)
	emit := func(added uint64, addW int64) {
		newMask := stKept | added
		w := stWeight + addW
		if j, ok := idx[newMask]; ok {
			old := &entries[j]
			oldPrev := uint64(0)
			if old.prevIdx >= 0 {
				oldPrev = entries[old.prevIdx].mask
			}
			// Equal-weight ties keep the lexicographically smallest
			// (prevMask, added), making the winner independent of the
			// order states are expanded in.
			if w > old.weight ||
				(w == old.weight && (stMask < oldPrev || (stMask == oldPrev && added < old.added))) {
				*old = dpEntry{mask: newMask, added: added, weight: w, prevIdx: stPrev}
			}
			return
		}
		idx[newMask] = int32(len(entries))
		entries = append(entries, dpEntry{mask: newMask, added: added, weight: w, prevIdx: stPrev})
	}
	var extend func(k int, added uint64, addW int64)
	extend = func(k int, added uint64, addW int64) {
		if k == len(stStarters) {
			emit(added, addW)
			return
		}
		// Skip starter k.
		extend(k+1, added, addW)
		// Take starter k if disjoint from added so far.
		i := stStarters[k]
		for m := added; m != 0; m &= m - 1 {
			if conflict[i*n+bits.TrailingZeros64(m)] {
				return // cannot take; but siblings after skip are done
			}
		}
		extend(k+1, added|1<<uint(i), addW+rects[i].Task.Weight)
	}
	done := ctx.Done()
	curLo, curHi := 0, 1
	for e := 0; e < edges; e++ {
		if done != nil && e&63 == 0 && ctx.Err() != nil {
			return nil, false
		}
		clear(idx)
		for si := curLo; si < curHi; si++ {
			ent := entries[si]
			// Rectangles leaving after edge e-1 (End == e) are dropped.
			kept := ent.mask
			if e > 0 {
				for m := ent.mask; m != 0; m &= m - 1 {
					i := bits.TrailingZeros64(m)
					if rects[i].Task.End == e {
						kept &^= 1 << uint(i)
					}
				}
			}
			// Enumerate disjoint subsets of rectangles starting at e that
			// are compatible with kept.
			starters := starterBuf[:0]
			for _, i := range startFlat[startOff[e]:startOff[e+1]] {
				okToAdd := true
				for m := kept; m != 0; m &= m - 1 {
					if conflict[i*n+bits.TrailingZeros64(m)] {
						okToAdd = false
						break
					}
				}
				if okToAdd {
					starters = append(starters, i)
				}
			}
			stStarters, stKept, stMask, stWeight, stPrev = starters, kept, ent.mask, ent.weight, int32(si)
			extend(0, 0, 0)
			if len(idx) > maxStates {
				return nil, false
			}
		}
		curLo, curHi = curHi, len(entries)
		obs.DPStates.Add(int64(curHi - curLo))
	}
	// Best final state; ties go to the smallest mask for determinism.
	bestIdx := -1
	var bestMask uint64
	var bestW int64 = -1
	for i := curLo; i < curHi; i++ {
		if entries[i].weight > bestW || (entries[i].weight == bestW && entries[i].mask < bestMask) {
			bestW = entries[i].weight
			bestMask = entries[i].mask
			bestIdx = i
		}
	}
	// Reconstruct by walking the predecessor chain.
	var chosenMask uint64
	for i := bestIdx; i >= 0; i = int(entries[i].prevIdx) {
		chosenMask |= entries[i].added
	}
	chosen := a.Ints(bits.OnesCount64(chosenMask))[:0]
	for m := chosenMask; m != 0; m &= m - 1 {
		chosen = append(chosen, bits.TrailingZeros64(m))
	}
	return chosen, true
}

// mwisBranchBound is an exact include/exclude search over rectangles sorted
// by weight, with suffix-weight pruning.
func mwisBranchBound(ctx context.Context, rects []Rect, opts Options) ([]int, error) {
	n := len(rects)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return rects[order[a]].Task.Weight > rects[order[b]].Task.Weight })
	suffix := make([]int64, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + rects[order[i]].Task.Weight
	}
	conflict := func(i, j int) bool { return rects[i].Intersects(rects[j]) }
	var best int64 = -1
	var bestSet []int
	var cur []int
	var nodes int64
	exhausted := false
	cancelled := false
	var rec func(k int, w int64)
	rec = func(k int, w int64) {
		nodes++
		if nodes&1023 == 0 {
			faultinject.Fire(ctx, "largesap/bb/node")
			if ctx.Err() != nil {
				cancelled = true
			}
		}
		if cancelled {
			return
		}
		if nodes > opts.MaxNodes {
			exhausted = true
			return
		}
		if w > best {
			best = w
			bestSet = append(bestSet[:0], cur...)
		}
		if k == n || w+suffix[k] <= best {
			return
		}
		i := order[k]
		ok := true
		for _, j := range cur {
			if conflict(i, j) {
				ok = false
				break
			}
		}
		if ok {
			cur = append(cur, i)
			rec(k+1, w+rects[i].Task.Weight)
			cur = cur[:len(cur)-1]
		}
		if exhausted || cancelled {
			return
		}
		rec(k+1, w)
	}
	rec(0, 0)
	obs.BBNodes.Add(nodes)
	out := append([]int(nil), bestSet...)
	sort.Ints(out)
	if cancelled {
		return out, saperr.Cancelled(ctx.Err())
	}
	if exhausted {
		return out, fmt.Errorf("%w: %d nodes", ErrBudget, nodes)
	}
	return out, nil
}

// SmallestLastColoring colors the rectangle intersection graph by the
// smallest-last (degeneracy) ordering of Matula and Beck, the procedure in
// the proof of Theorem 3. It returns the color classes (0-based per rect),
// the number of colors used, and the graph's degeneracy. For the rectangle
// family of any feasible 1/k-large SAP solution, Lemma 17 guarantees
// degeneracy ≤ 2k−2 and hence at most 2k−1 colors.
func SmallestLastColoring(rects []Rect) (colors []int, numColors, degeneracy int) {
	n := len(rects)
	colors = make([]int, n)
	if n == 0 {
		return colors, 0, 0
	}
	adj := make([][]int, n)
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rects[i].Intersects(rects[j]) {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
				deg[i]++
				deg[j]++
			}
		}
	}
	removed := make([]bool, n)
	orderRev := make([]int, 0, n)
	for len(orderRev) < n {
		best := -1
		for v := 0; v < n; v++ {
			if removed[v] {
				continue
			}
			if best == -1 || deg[v] < deg[best] {
				best = v
			}
		}
		if deg[best] > degeneracy {
			degeneracy = deg[best]
		}
		removed[best] = true
		orderRev = append(orderRev, best)
		for _, u := range adj[best] {
			if !removed[u] {
				deg[u]--
			}
		}
	}
	// Color in reverse removal order with the smallest available color. A
	// vertex has at most n-1 neighbours, so colors fit [0, n); one shared
	// mark buffer (cleared per vertex by un-marking the same neighbours)
	// replaces the per-vertex map.
	for i := range colors {
		colors[i] = -1
	}
	used := make([]bool, n+1)
	for i := n - 1; i >= 0; i-- {
		v := orderRev[i]
		for _, u := range adj[v] {
			if colors[u] >= 0 {
				used[colors[u]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		for _, u := range adj[v] {
			if colors[u] >= 0 {
				used[colors[u]] = false
			}
		}
		colors[v] = c
		if c+1 > numColors {
			numColors = c + 1
		}
	}
	return colors, numColors, degeneracy
}

// BestColorClass returns the indices of the heaviest color class under the
// smallest-last coloring — the constructive (2k−1)-factor witness used in
// the proof of Theorem 3.
func BestColorClass(rects []Rect) []int {
	colors, numColors, _ := SmallestLastColoring(rects)
	if numColors == 0 {
		return nil
	}
	weights := make([]int64, numColors)
	for i, c := range colors {
		weights[c] += rects[i].Task.Weight
	}
	best := 0
	for c := 1; c < numColors; c++ {
		if weights[c] > weights[best] {
			best = c
		}
	}
	var out []int
	for i, c := range colors {
		if c == best {
			out = append(out, i)
		}
	}
	return out
}
