// Package exact provides exact (exponential-time) solvers for SAP, UFPP and
// SAP on rings, used by the experiment harness to measure the empirical
// approximation ratios of the polynomial algorithms against true optima on
// small instances, and by the test suite as ground truth.
//
// The SAP search exploits Observation 11 of the paper (every instance has a
// "grounded" optimal solution, obtainable by gravity) together with an
// exchange argument: a grounded solution can be built by placing its tasks
// in nondecreasing height order, and while doing so each next task may be
// moved down to its lowest feasible slot without losing completability.
// The branch-and-bound therefore branches only on which task is placed next
// and always places it at its lowest feasible candidate height (0 or the
// top of an already placed, edge-sharing task).
//
// One branch-and-bound serves every SAP variant: each task carries one or
// more placement choices (an edge set with its capacity ceiling), and the
// search also branches on the choice. A path task has one choice; a ring
// task has two, its clockwise and counter-clockwise arcs (SolveRingSAP);
// a windowed task has one per start offset (SolveChoicesCtx, used by
// package window). The exchange argument holds for every fixed assignment
// of choices, so the search stays complete.
//
// The search keeps one level of state per depth d of the current branch:
// its first d placements sorted by bottom, and for every choice of every
// item still remaining that choice's lowest slot and a 64-bit mask of the
// sorted placements sharing an edge with it. A node derives its level from
// its parent's: the new placement gets a bit in every mask, and only the
// slots whose gap it overlaps are re-swept, over their mask's bits. The
// node order, the node count and every incumbent are those of recomputing
// each slot from the whole placement stack, which the tests keep as the
// reference.
package exact

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"sapalloc/internal/faultinject"
	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/saperr"
	"sapalloc/internal/scratch"
)

// ErrTooLarge is returned when an instance exceeds the exact solvers' size
// limit (bitmask width).
var ErrTooLarge = errors.New("exact: instance too large for exact solver")

// MaxTasks is the hard cap on the number of tasks the exact solvers accept.
const MaxTasks = 62

// Budget bounds the number of search nodes; Solve* returns ErrBudget when
// it is exhausted so callers can distinguish "proved optimal" from "gave
// up".
var ErrBudget = errors.New("exact: search budget exhausted")

// MaxChoices caps the total number of placement choices one search
// accepts: the overlap table holds one entry per pair of choices.
const MaxChoices = 1024

// choice is one way to place an item: the edges it would occupy (a bitset)
// and the bottleneck capacity over them, which bounds the item's top.
type choice struct {
	edges []uint64
	cap   int64
}

func (a choice) overlaps(b choice) bool {
	for w := range a.edges {
		if a.edges[w]&b.edges[w] != 0 {
			return true
		}
	}
	return false
}

// item is the geometry-only view of a task used by the search: demand,
// weight, and the index range [first, end) of its placement choices. A path
// task has one choice, a ring task one per orientation and a windowed task
// one per start offset.
type item struct {
	demand, weight int64
	first, end     int
}

// rect is a committed placement on the search stack. MaxTasks and
// MaxChoices keep both indices comfortably inside int32.
type rect struct {
	item, choice int32
	bottom, top  int64
}

// A level's overlap masks hold one bit per placement of the branch, so a
// branch may be at most 64 placements deep (this fails to compile
// otherwise).
const _ uint = 64 - MaxTasks

// The search's records live in the enclosing solve's arena. Their poison
// values are out of every range a search builds.
var (
	itemKind   = scratch.NewKind(item{demand: -0x5A5A5A5B, weight: -0x5A5A5A5B, first: 0x5A5A5A5A, end: -0x5A5A5A5B})
	choiceKind = scratch.NewKind(choice{cap: -0x5A5A5A5B})
	rectKind   = scratch.NewKind(rect{item: -0x5A5A5A5B, choice: -0x5A5A5A5B, bottom: -0x5A5A5A5B, top: -0x5A5A5A5B})
)

// searcher is the shared branch-and-bound core. All working buffers come
// from a scratch.Arena owned by the enclosing solve, so steady-state
// searches allocate nothing per node (and near-nothing per search).
type searcher struct {
	ctx     context.Context
	items   []item
	choices []choice
	overlap []bool // len(choices)² row-major: do two choices share an edge

	bestWeight  int64
	bestHeights []int64 // per item, -1 = not scheduled
	bestChoice  []int   // per item, the choice bestHeights[i] was taken on
	nodes       int64
	maxNodes    int64
	deadline    time.Time // zero = none
	exhausted   bool
	stopped     error // why the search was cut short: the context's error or the deadline

	placed []rect // the current branch's placements in placement order, len(items)
	order  []int  // greedySeed's item order, len(items)

	// The level tables. Level d, the state after placed[:d], sits at
	// offset d·2n in sorted and d·nc in slot and mask. sorted holds its
	// placements as (bottom, top) pairs in bottom order; slot[c] is choice
	// c's lowest slot (-1 = fits nowhere) and bit i of mask[c] is set iff
	// sorted placement i shares an edge with c. Only the choices of items
	// remaining at a level are kept current there.
	sorted []int64
	slot   []int64
	mask   []uint64
}

// init sets s up for a search; a searcher declared in the solve's frame
// stays off the heap.
func (s *searcher) init(ctx context.Context, items []item, choices []choice, maxNodes int64, a *scratch.Arena) {
	n, nc := len(items), len(choices)
	*s = searcher{ctx: ctx, items: items, choices: choices, maxNodes: maxNodes}
	s.overlap = a.BoolsZero(nc * nc)
	for i := 0; i < nc; i++ {
		for j := i + 1; j < nc; j++ {
			if choices[i].overlaps(choices[j]) {
				s.overlap[i*nc+j] = true
				s.overlap[j*nc+i] = true
			}
		}
	}
	s.bestHeights = a.Int64s(n)
	s.bestChoice = a.Ints(n)
	s.placed = rectKind.Make(a, n)
	s.order = a.Ints(n)
	s.sorted = a.Int64s((n + 1) * 2 * n)
	s.slot = a.Int64s((n + 1) * nc)
	s.mask = a.Uint64s((n + 1) * nc)
	// Level 0: nothing is placed, so every choice's slot is 0 if the item
	// fits under the choice's ceiling at all.
	for _, it := range items {
		for c := it.first; c < it.end; c++ {
			s.slot[c] = 0
			if it.demand > choices[c].cap {
				s.slot[c] = -1
			}
			s.mask[c] = 0
		}
	}
}

// descend derives level d from level d-1 and the new placement
// r = placed[d-1], for the choices of the items in remaining. r goes into
// the sorted placements at position p, after those with a lower or equal
// bottom, and every choice's mask gets a bit inserted at p, set iff r
// shares an edge with the choice. A slot can only rise: it stays put when
// it was already -1, when r shares no edge with the choice, or when r lies
// wholly above or below the gap [h, h+demand) it names. Otherwise the
// choice is re-swept over its mask. This is the innermost hot path: it
// runs once per node and must not allocate.
func (s *searcher) descend(d int, remaining uint64) {
	n, nc := len(s.items), len(s.choices)
	r := s.placed[d-1]
	from := s.sorted[(d-1)*2*n : (d-1)*2*n+2*(d-1)]
	to := s.sorted[d*2*n : d*2*n+2*d]
	p := 0
	for p < d-1 && from[2*p] <= r.bottom {
		p++
	}
	copy(to, from[:2*p])
	to[2*p], to[2*p+1] = r.bottom, r.top
	copy(to[2*p+2:], from[2*p:])

	row := s.overlap[int(r.choice)*nc : (int(r.choice)+1)*nc]
	pslot, pmask := s.slot[(d-1)*nc:d*nc], s.mask[(d-1)*nc:d*nc]
	slot, mask := s.slot[d*nc:(d+1)*nc], s.mask[d*nc:(d+1)*nc]
	low := uint64(1)<<uint(p) - 1
	for m := remaining; m != 0; m &= m - 1 {
		it := s.items[bits.TrailingZeros64(m)]
		for c := it.first; c < it.end; c++ {
			h := pslot[c]
			if h < 0 {
				slot[c] = -1 // closed for good: its mask is never read again
				continue
			}
			cm := pmask[c]&low | (pmask[c]&^low)<<1
			if row[c] {
				cm |= 1 << uint(p)
				if r.top > h && r.bottom < h+it.demand {
					h = s.sweep(c, cm, r.top, it.demand, to)
				}
			}
			slot[c], mask[c] = h, cm
		}
	}
}

// sweep returns the lowest height from h up at which an item of the given
// demand fits on choice c among the sorted placements the mask selects,
// or -1 when that gap passes the choice's ceiling. The lowest free gap
// starts at 0 or at the top of a placement sharing an edge with c, which
// is where the grounded placement of Observation 11 puts the item. Every
// height below h must already be known to be blocked.
func (s *searcher) sweep(c int, mask uint64, h, demand int64, sorted []int64) int64 {
	for ; mask != 0; mask &= mask - 1 {
		i := bits.TrailingZeros64(mask)
		if sorted[2*i] >= h+demand {
			break // the gap [h, h+demand) is free, and so is all above it
		}
		h = max(h, sorted[2*i+1])
	}
	if h+demand > s.choices[c].cap {
		return -1
	}
	return h
}

func (s *searcher) run() {
	// Seed the incumbent with a greedy packing (weight-descending first
	// fit) so the bound prunes early.
	s.greedySeed()
	all := uint64(1)<<uint(len(s.items)) - 1
	var total int64
	for _, it := range s.items {
		total += it.weight
	}
	s.rec(0, all, 0, total)
	obs.ExactBBNodes.Add(s.nodes)
}

// greedySeed places the items in weight-descending order, each on the
// choice with the lowest slot (the first such choice on ties). Its
// placements form one branch of the levels.
func (s *searcher) greedySeed() {
	order := s.order
	for i := range order {
		order[i] = i
	}
	// The comparator is not a total order (equal weights tie arbitrarily),
	// and budget-truncated searches make the seed's tie order
	// output-affecting. slices.SortFunc is generated from the same pdqsort
	// template as sort.Slice, so it makes the same comparisons and swaps
	// and leaves ties where sort.Slice left them, without sort.Slice's
	// reflection allocations.
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(s.items[b].weight, s.items[a].weight) })
	left := uint64(1)<<uint(len(s.items)) - 1
	d := 0
	var w int64
	for _, j := range order {
		left &^= 1 << uint(j)
		it := s.items[j]
		slot := s.slot[d*len(s.choices):]
		best := rect{bottom: -1}
		for c := it.first; c < it.end; c++ {
			if h := slot[c]; h >= 0 && (best.bottom < 0 || h < best.bottom) {
				best = rect{item: int32(j), choice: int32(c), bottom: h, top: h + it.demand}
			}
		}
		if best.bottom >= 0 {
			s.placed[d] = best
			d++
			s.descend(d, left)
			w += it.weight
		}
	}
	s.bestWeight = w
	s.record(s.placed[:d])
}

// record makes placed the incumbent.
func (s *searcher) record(placed []rect) {
	for i := range s.bestHeights {
		s.bestHeights[i] = -1
	}
	for _, r := range placed {
		s.bestHeights[r.item] = r.bottom
		s.bestChoice[r.item] = int(r.choice)
	}
}

// rec explores placements at depth d: placed[:d] holds the committed
// rectangles, cur their weight. remaining is the bitmask of items not yet
// placed or discarded (a branch discards implicitly by never placing an
// item: placing any strict subset of remaining is reachable because the
// recursion can stop improving at any node), and rem their total weight.
func (s *searcher) rec(d int, remaining uint64, cur, rem int64) {
	s.nodes++
	// Masked cooperative check: a context and deadline poll every 1024
	// nodes keeps the per-node cost negligible while bounding cancellation
	// latency.
	if s.nodes&1023 == 0 && s.ctx != nil {
		faultinject.Fire(s.ctx, "exact/sap/node")
		s.stopped = poll(s.ctx, s.deadline)
	}
	if s.stopped != nil {
		return
	}
	if s.maxNodes > 0 && s.nodes > s.maxNodes {
		s.exhausted = true
		return
	}
	if cur > s.bestWeight {
		s.bestWeight = cur
		s.record(s.placed[:d])
	}
	// Upper bound: current + everything remaining.
	if cur+rem <= s.bestWeight {
		return
	}
	if d > 0 {
		s.descend(d, remaining)
	}
	slot := s.slot[d*len(s.choices):]
	// Branch on which remaining item is placed next and on which choice,
	// at that choice's lowest slot. The nondecreasing-height exchange
	// argument makes this complete for every assignment of choices.
	for m := remaining; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		it := s.items[j]
		fits := false
		for c := it.first; c < it.end; c++ {
			h := slot[c]
			if h < 0 {
				continue
			}
			fits = true
			s.placed[d] = rect{item: int32(j), choice: int32(c), bottom: h, top: h + it.demand}
			s.rec(d+1, remaining&^(1<<uint(j)), cur+it.weight, rem-it.weight)
			if s.exhausted || s.stopped != nil {
				// Not even a sibling choice may run: a further child
				// would count a node past the budget, and its poll could
				// turn the spent budget into a cancellation.
				return
			}
		}
		if !fits {
			// j can never be placed deeper in this branch (slots only
			// close); drop it from remaining for the whole subtree.
			remaining &^= 1 << uint(j)
			rem -= it.weight
			if cur+rem <= s.bestWeight {
				return
			}
		}
	}
}

// err reports how the search ended: cancelled, out of budget, or proved.
func (s *searcher) err() error {
	if s.stopped != nil {
		return saperr.Cancelled(s.stopped)
	}
	if s.exhausted {
		return ErrBudget
	}
	return nil
}

// Options configures the exact solvers.
type Options struct {
	// MaxNodes caps the branch-and-bound node count (0 = 50 million).
	MaxNodes int64
	// Deadline, when positive, bounds the wall clock of a single call; on
	// expiry the search stops and the incumbent is returned with a typed
	// cancelled error wrapping context.DeadlineExceeded (mirroring the
	// ErrBudget contract). Callers that slice a larger budget across class
	// solves set this per call.
	Deadline time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 50_000_000
	}
	return o
}

// deadline returns the instant a call that starts now must stop at, or the
// zero time when Deadline is unset. The searches compare it against the
// clock at their periodic poll, which costs no timer and no derived
// context.
func (o Options) deadline() time.Time {
	if o.Deadline <= 0 {
		return time.Time{}
	}
	return time.Now().Add(o.Deadline)
}

// poll reports why a search must stop: ctx's error, or
// context.DeadlineExceeded once the deadline (zero = none) has passed.
func poll(ctx context.Context, deadline time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// SolveSAP computes an optimal SAP solution by branch and bound. Instances
// with more than MaxTasks tasks are rejected with ErrTooLarge; if the node
// budget is exhausted the incumbent is returned together with ErrBudget.
func SolveSAP(in *model.Instance, opts Options) (*model.Solution, error) {
	return SolveSAPCtx(context.Background(), in, opts)
}

// SolveSAPCtx is SolveSAP under a context (and optional Options.Deadline).
// When cancelled mid-search the feasible incumbent found so far is returned
// together with an error wrapping saperr.ErrCancelled — the anytime
// counterpart of the ErrBudget contract.
func SolveSAPCtx(ctx context.Context, in *model.Instance, opts Options) (*model.Solution, error) {
	return solution(AppendSAPCtx(ctx, nil, in, opts))
}

// AppendSAPCtx is SolveSAPCtx for a caller that keeps the answer in its own
// memory: it appends the placements of the optimum (or of the incumbent,
// under the same error contract) to dst in task order and returns the
// extended slice. dst grows only when it lacks the room.
func AppendSAPCtx(ctx context.Context, dst []model.Placement, in *model.Instance, opts Options) ([]model.Placement, error) {
	n := len(in.Tasks)
	if n > MaxTasks {
		return nil, fmt.Errorf("%w: %d tasks (max %d)", ErrTooLarge, n, MaxTasks)
	}
	a, owned := scratch.Acquire(ctx)
	defer scratch.Put(owned)
	// Each task is its own single alternative.
	ends := a.Ints(n)
	for i := range ends {
		ends[i] = i + 1
	}
	return search(ctx, a, in.Capacity, in.Tasks, ends, opts, dst)
}

// solution wraps a search's placements as the fresh Solution the public
// solvers return (nil Items when nothing is placed), or nil for a search
// that never ran.
func solution(items []model.Placement, err error) (*model.Solution, error) {
	if errors.Is(err, ErrTooLarge) {
		return nil, err
	}
	return &model.Solution{Items: items}, err
}

// SolveChoicesCtx is SolveSAPCtx for tasks that may each take one of
// several intervals of the path with the given capacities: alts[i] lists
// task i's alternatives, all valid tasks of the path carrying task i's
// Demand and Weight (a task with no alternatives is never scheduled). The
// returned Solution holds, in task order, the alternative each scheduled
// task was placed on. The search branches on the alternative as well as
// on the next task, so it is exact under the same budget, deadline and
// cancellation contract as SolveSAPCtx. More than MaxTasks tasks or
// MaxChoices alternatives in total are rejected with ErrTooLarge.
func SolveChoicesCtx(ctx context.Context, capacity []int64, alts [][]model.Task, opts Options) (*model.Solution, error) {
	n, nc := len(alts), 0
	for _, g := range alts {
		nc += len(g)
	}
	if n > MaxTasks {
		return nil, fmt.Errorf("%w: %d tasks (max %d)", ErrTooLarge, n, MaxTasks)
	}
	if nc > MaxChoices {
		return nil, fmt.Errorf("%w: %d placement choices (max %d)", ErrTooLarge, nc, MaxChoices)
	}
	a, owned := scratch.Acquire(ctx)
	defer scratch.Put(owned)
	flat, ends := a.Tasks(nc), a.Ints(n)
	nc = 0
	for i, g := range alts {
		nc += copy(flat[nc:], g)
		ends[i] = nc
	}
	return solution(search(ctx, a, capacity, flat, ends, opts, nil))
}

// search runs the branch-and-bound over tasks whose alternatives are laid
// out flat: task i may take one of alts[ends[i-1]:ends[i]] (from 0 for
// task 0). It appends the placement of every task the best solution
// schedules to dst, in task order.
func search(ctx context.Context, a *scratch.Arena, capacity []int64, alts []model.Task, ends []int, opts Options, dst []model.Placement) ([]model.Placement, error) {
	opts = opts.withDefaults()
	items, choices := pathChoices(capacity, alts, ends, a)
	var s searcher
	s.init(ctx, items, choices, opts.MaxNodes, a)
	s.deadline = opts.deadline()
	s.run()
	placed := 0
	for _, h := range s.bestHeights {
		if h >= 0 {
			placed++
		}
	}
	dst = slices.Grow(dst, placed)
	for i, h := range s.bestHeights {
		if h >= 0 {
			// A choice's index is its alternative's index in alts.
			dst = append(dst, model.Placement{Task: alts[s.bestChoice[i]], Height: h})
		}
	}
	return dst, s.err()
}

// pathChoices gives task i one choice per alternative in
// alts[ends[i-1]:ends[i]], each occupying the alternative's edges under
// their bottleneck capacity. Choice c is alternative alts[c].
func pathChoices(capacity []int64, alts []model.Task, ends []int, a *scratch.Arena) ([]item, []choice) {
	words := len(capacity)/64 + 1
	backing := a.Uint64sZero(len(alts) * words)
	items := itemKind.Make(a, len(ends))
	first := 0
	for i, end := range ends {
		items[i] = item{first: first, end: end}
		if end > first {
			items[i].demand, items[i].weight = alts[first].Demand, alts[first].Weight
		}
		first = end
	}
	choices := choiceKind.Make(a, len(alts))
	for c, t := range alts {
		bits := backing[c*words : (c+1)*words]
		ceiling := capacity[t.Start]
		for e := t.Start; e < t.End; e++ {
			bits[e/64] |= 1 << (uint(e) % 64)
			ceiling = min(ceiling, capacity[e])
		}
		choices[c] = choice{edges: bits, cap: ceiling}
	}
	return items, choices
}

// SolveUFPP computes an optimal UFPP solution by include/exclude branch and
// bound with per-edge load tracking.
func SolveUFPP(in *model.Instance, opts Options) ([]model.Task, error) {
	return SolveUFPPCtx(context.Background(), in, opts)
}

// SolveUFPPCtx is SolveUFPP under a context; on cancellation the incumbent
// task set is returned with an error wrapping saperr.ErrCancelled.
func SolveUFPPCtx(ctx context.Context, in *model.Instance, opts Options) ([]model.Task, error) {
	opts = opts.withDefaults()
	deadline := opts.deadline()
	n := len(in.Tasks)
	if n > MaxTasks {
		return nil, fmt.Errorf("%w: %d tasks (max %d)", ErrTooLarge, n, MaxTasks)
	}
	sc, owned := scratch.Acquire(ctx)
	defer scratch.Put(owned)
	// Order by weight descending for good incumbents early. As in
	// greedySeed, the comparator ties arbitrarily on equal weights and
	// budget-truncated searches expose that order, which slices.SortFunc
	// leaves as sort.Slice did.
	order := sc.Ints(n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(in.Tasks[b].Weight, in.Tasks[a].Weight) })
	suffix := sc.Int64sZero(n + 1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + in.Tasks[order[i]].Weight
	}
	load := sc.Int64sZero(in.Edges())
	taken := sc.BoolsZero(n)
	bestTaken := sc.BoolsZero(n)
	var best int64 = -1
	var nodes int64
	exhausted := false
	var stopped error
	var rec func(k int, cur int64)
	rec = func(k int, cur int64) {
		nodes++
		if nodes&1023 == 0 {
			faultinject.Fire(ctx, "exact/ufpp/node")
			stopped = poll(ctx, deadline)
		}
		if stopped != nil {
			return
		}
		if nodes > opts.MaxNodes {
			exhausted = true
			return
		}
		if cur > best {
			best = cur
			copy(bestTaken, taken)
		}
		if k == n || cur+suffix[k] <= best {
			return
		}
		t := in.Tasks[order[k]]
		fits := true
		for e := t.Start; e < t.End; e++ {
			if load[e]+t.Demand > in.Capacity[e] {
				fits = false
				break
			}
		}
		if fits {
			for e := t.Start; e < t.End; e++ {
				load[e] += t.Demand
			}
			taken[order[k]] = true
			rec(k+1, cur+t.Weight)
			taken[order[k]] = false
			for e := t.Start; e < t.End; e++ {
				load[e] -= t.Demand
			}
		}
		if exhausted || stopped != nil {
			return
		}
		rec(k+1, cur)
	}
	rec(0, 0)
	var out []model.Task
	for i, tk := range bestTaken {
		if tk {
			out = append(out, in.Tasks[i])
		}
	}
	if stopped != nil {
		return out, saperr.Cancelled(stopped)
	}
	if exhausted {
		return out, ErrBudget
	}
	return out, nil
}

// SolveRingSAP computes an optimal SAP solution on a ring. Each task may
// be routed clockwise or counter-clockwise, and the branch-and-bound
// branches on that orientation as a placement choice, in one search over
// all tasks. Instances with more than MaxTasks tasks are rejected with
// ErrTooLarge.
func SolveRingSAP(r *model.RingInstance, opts Options) (*model.RingSolution, error) {
	return SolveRingSAPCtx(context.Background(), r, opts)
}

// SolveRingSAPCtx is SolveRingSAP under a context; on cancellation the
// feasible incumbent found so far is returned with an error wrapping
// saperr.ErrCancelled.
func SolveRingSAPCtx(ctx context.Context, r *model.RingInstance, opts Options) (*model.RingSolution, error) {
	opts = opts.withDefaults()
	deadline := opts.deadline()
	n := len(r.Tasks)
	if n > MaxTasks {
		return nil, fmt.Errorf("%w: %d ring tasks (max %d)", ErrTooLarge, n, MaxTasks)
	}
	a, owned := scratch.Acquire(ctx)
	defer scratch.Put(owned)
	items, choices := ringChoices(r, a)
	var s searcher
	s.init(ctx, items, choices, opts.MaxNodes, a)
	s.deadline = deadline
	s.run()
	sol := &model.RingSolution{}
	for i, h := range s.bestHeights {
		if h >= 0 {
			sol.Items = append(sol.Items, model.RingPlacement{
				Task: r.Tasks[i], Orientation: ringOrientations[s.bestChoice[i]-2*i], Height: h,
			})
		}
	}
	return sol, s.err()
}

// ringOrientations lists a ring task's two choices in choice order.
var ringOrientations = [2]model.Orientation{model.Clockwise, model.CounterClockwise}

// ringChoices gives ring task i the choices 2i (clockwise arc) and 2i+1
// (counter-clockwise arc).
func ringChoices(r *model.RingInstance, a *scratch.Arena) ([]item, []choice) {
	n, words := len(r.Tasks), r.Edges()/64+1
	backing := a.Uint64sZero(2 * n * words)
	// One sparse-table build answers every arc bottleneck in O(1).
	capIx := r.Index()
	items := itemKind.Make(a, n)
	choices := choiceKind.Make(a, 2*n)
	for i, t := range r.Tasks {
		items[i] = item{demand: t.Demand, weight: t.Weight, first: 2 * i, end: 2*i + 2}
		for k, o := range ringOrientations {
			c := 2*i + k
			bits := backing[c*words : (c+1)*words]
			r.ForEachArcEdge(t, o, func(e int) bool {
				bits[e/64] |= 1 << (uint(e) % 64)
				return true
			})
			from, to := t.ArcEndpoints(o)
			choices[c] = choice{edges: bits, cap: capIx.ArcMin(from, to)}
		}
	}
	return items, choices
}

// SolveSAPAuto picks the best exact engine for the instance: thin uniform
// or small-capacity instances go to the polynomial occupancy DP (via the
// caller-supplied dpSolve hook to avoid an import cycle), everything else
// to the branch-and-bound. Exposed as a convenience for harnesses; both
// engines are cross-checked against each other in the test suites.
func SolveSAPAuto(in *model.Instance, opts Options, dpSolve func(*model.Instance) (*model.Solution, error)) (*model.Solution, error) {
	return SolveSAPAutoCtx(context.Background(), in, opts, dpSolve)
}

// SolveSAPAutoCtx is SolveSAPAuto under a context.
func SolveSAPAutoCtx(ctx context.Context, in *model.Instance, opts Options, dpSolve func(*model.Instance) (*model.Solution, error)) (*model.Solution, error) {
	if dpSolve != nil && in.MaxCapacity() <= 12 && len(in.Tasks) > 16 {
		if sol, err := dpSolve(in); err == nil {
			return sol, nil
		}
		// DP rejected or overflowed its state cap: fall through to B&B.
	}
	return SolveSAPCtx(ctx, in, opts)
}
