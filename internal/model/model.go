// Package model defines the core combinatorial objects of the storage
// allocation problem (SAP) and the unsplittable flow problem on paths
// (UFPP): path instances, tasks, solutions with height assignments, ring
// instances, and the validators and measures (load, makespan, bottleneck)
// used throughout the library.
//
// # Conventions
//
// A path with m edges has vertices 0..m and edges 0..m-1; edge e connects
// vertices e and e+1. A task with Start=s and End=t (0 <= s < t <= m) uses
// edges s..t-1, i.e. the half-open edge interval [s, t). All demands,
// capacities, weights and heights are int64: heights produced by the
// algorithms in this module are sums of demands, so integer arithmetic is
// exact and closed.
package model

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"sapalloc/internal/saperr"
)

// Task is a single allocation request on the path: the half-open edge
// interval [Start, End), a demand (rectangle height) and a weight (profit).
type Task struct {
	// ID is the caller-assigned identity of the task. Generators assign
	// sequential IDs; algorithms preserve them. IDs must be unique within
	// an Instance.
	ID int
	// Start and End delimit the half-open edge interval [Start, End) the
	// task occupies. 0 <= Start < End <= m.
	Start, End int
	// Demand is the vertical extent the task needs on every edge it uses.
	Demand int64
	// Weight is the profit collected if the task is scheduled.
	Weight int64
}

// Edges returns the number of edges the task spans.
func (t Task) Edges() int { return t.End - t.Start }

// Uses reports whether the task uses edge e.
func (t Task) Uses(e int) bool { return t.Start <= e && e < t.End }

// Overlaps reports whether the edge intervals of t and u intersect.
func (t Task) Overlaps(u Task) bool { return t.Start < u.End && u.Start < t.End }

// String renders the task compactly for diagnostics.
func (t Task) String() string {
	return fmt.Sprintf("task{id=%d [%d,%d) d=%d w=%d}", t.ID, t.Start, t.End, t.Demand, t.Weight)
}

// Instance is a SAP/UFPP instance on a path: per-edge capacities and a task
// set. The zero value is an empty instance on an empty path.
type Instance struct {
	// Capacity holds the capacity of each edge; len(Capacity) is the number
	// of edges m.
	Capacity []int64
	// Tasks is the request set J.
	Tasks []Task
}

// Edges returns the number of edges of the underlying path.
func (in *Instance) Edges() int { return len(in.Capacity) }

// Hard size and magnitude limits enforced by Validate. They exist so that
// every downstream algorithm can rely on int64 arithmetic being exact and
// closed: heights are sums of demands and objectives are sums of weights,
// so with at most MaxTasks tasks of magnitude at most MaxMagnitude every
// such sum stays below 2^62 and can never overflow.
const (
	// MaxEdges bounds the path/ring length accepted by Validate.
	MaxEdges = 1 << 24
	// MaxTasks bounds the number of tasks accepted by Validate.
	MaxTasks = 1 << 22
	// MaxMagnitude bounds each capacity, demand, and weight (2^40):
	// MaxTasks·MaxMagnitude = 2^62 < 2^63-1, so demand sums (heights) and
	// weight sums (objectives) are overflow-free by construction.
	MaxMagnitude = 1 << 40
)

// Validate checks structural well-formedness: positive demands and
// capacities, non-negative weights, task intervals within the path, unique
// IDs, and the size/magnitude limits that make int64 sums overflow-free
// (MaxEdges, MaxTasks, MaxMagnitude). It is the single trust boundary for
// untrusted input — every error wraps saperr.ErrInfeasibleInput, and
// algorithms in this module assume Validate passes.
func (in *Instance) Validate() error {
	m := in.Edges()
	if m > MaxEdges {
		return saperr.Input("%d edges exceed the limit of %d", m, MaxEdges)
	}
	if len(in.Tasks) > MaxTasks {
		return saperr.Input("%d tasks exceed the limit of %d", len(in.Tasks), MaxTasks)
	}
	for e, c := range in.Capacity {
		if c <= 0 {
			return saperr.Input("edge %d: capacity %d is not positive", e, c)
		}
		if c > MaxMagnitude {
			return saperr.Input("edge %d: capacity %d exceeds the magnitude limit %d", e, c, int64(MaxMagnitude))
		}
	}
	var demandSum, weightSum int64
	for i, t := range in.Tasks {
		if t.Start < 0 || t.End > m || t.Start >= t.End {
			return duplicateBefore(in.Tasks[:i], saperr.Input("task %d (id %d): interval [%d,%d) outside path with %d edges", i, t.ID, t.Start, t.End, m))
		}
		if err := amountError(i, t); err != nil {
			return duplicateBefore(in.Tasks[:i], err)
		}
		// Belt and braces: the per-field limits already make these sums
		// safe, but check explicitly so the invariant survives future
		// limit changes.
		if demandSum += t.Demand; demandSum < 0 {
			return duplicateBefore(in.Tasks[:i+1], saperr.Input("task %d (id %d): demand sum overflows int64", i, t.ID))
		}
		if weightSum += t.Weight; weightSum < 0 {
			return duplicateBefore(in.Tasks[:i+1], saperr.Input("task %d (id %d): weight sum overflows int64", i, t.ID))
		}
	}
	return duplicateBefore(in.Tasks, nil)
}

// amountError checks task i's demand and weight against their limits.
func amountError(i int, t Task) error {
	if t.Demand <= 0 {
		return saperr.Input("task %d (id %d): demand %d is not positive", i, t.ID, t.Demand)
	}
	if t.Demand > MaxMagnitude {
		return saperr.Input("task %d (id %d): demand %d exceeds the magnitude limit %d", i, t.ID, t.Demand, int64(MaxMagnitude))
	}
	if t.Weight < 0 {
		return saperr.Input("task %d (id %d): weight %d is negative", i, t.ID, t.Weight)
	}
	if t.Weight > MaxMagnitude {
		return saperr.Input("task %d (id %d): weight %d exceeds the magnitude limit %d", i, t.ID, t.Weight, int64(MaxMagnitude))
	}
	return nil
}

// duplicateBefore returns the duplicate-ID error of the first task in tasks
// whose ID an earlier task already has, and err when no ID repeats. The
// validators check tasks in order and report the first failure, and a
// repeated ID fails at the repeat, so a caller that failed task i passes the
// tasks whose duplicate check precedes that failure. Whether an ID repeats
// is decided by sorting the IDs in pooled memory; only a repeat pays for
// the in-order scan that words the error.
func duplicateBefore[T Task | RingTask](tasks []T, err error) error {
	if !hasDuplicateID(tasks) {
		return err
	}
	seen := make(map[int]bool, len(tasks))
	for i, x := range tasks {
		id := Task(x).ID
		if seen[id] {
			return saperr.Input("task %d: duplicate id %d", i, id)
		}
		seen[id] = true
	}
	return err
}

// hasDuplicateID reports whether two of the tasks share an ID.
func hasDuplicateID[T Task | RingTask](tasks []T) bool {
	if len(tasks) < 2 {
		return false
	}
	b := getBufs()
	defer putBufs(b)
	ids := b.ids[:0]
	for _, x := range tasks {
		ids = append(ids, Task(x).ID)
	}
	slices.Sort(ids)
	b.ids = ids
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{
		Capacity: append([]int64(nil), in.Capacity...),
		Tasks:    append([]Task(nil), in.Tasks...),
	}
	return out
}

// TaskByID returns the task with the given ID and whether it exists.
func (in *Instance) TaskByID(id int) (Task, bool) {
	for _, t := range in.Tasks {
		if t.ID == id {
			return t, true
		}
	}
	return Task{}, false
}

// Bottleneck returns b(j) = min_{e in I_j} c_e for the given task, the
// capacity of a bottleneck edge of the task.
func (in *Instance) Bottleneck(t Task) int64 {
	b := in.Capacity[t.Start]
	for e := t.Start + 1; e < t.End; e++ {
		if in.Capacity[e] < b {
			b = in.Capacity[e]
		}
	}
	return b
}

// Bottlenecks returns b(j) for every task, indexed like Tasks. On large
// instances the scans are answered by a sparse-table index (see
// BottleneckIndex) instead of per-task linear walks.
func (in *Instance) Bottlenecks() []int64 {
	bot := in.BottleneckLookup()
	out := make([]int64, len(in.Tasks))
	for i, t := range in.Tasks {
		out[i] = bot.Of(t)
	}
	return out
}

// MinCapacity returns the minimum edge capacity of the path, or 0 for an
// empty path.
func (in *Instance) MinCapacity() int64 {
	if len(in.Capacity) == 0 {
		return 0
	}
	c := in.Capacity[0]
	for _, v := range in.Capacity[1:] {
		if v < c {
			c = v
		}
	}
	return c
}

// MaxCapacity returns the maximum edge capacity of the path, or 0 for an
// empty path.
func (in *Instance) MaxCapacity() int64 {
	var c int64
	for _, v := range in.Capacity {
		if v > c {
			c = v
		}
	}
	return c
}

// TotalWeight returns the sum of all task weights.
func (in *Instance) TotalWeight() int64 {
	var w int64
	for _, t := range in.Tasks {
		w += t.Weight
	}
	return w
}

// Load returns, for each edge, the total demand of the given tasks using it:
// d(S(e)) for every e.
func (in *Instance) Load(tasks []Task) []int64 {
	load := make([]int64, in.Edges())
	for _, t := range tasks {
		for e := t.Start; e < t.End; e++ {
			load[e] += t.Demand
		}
	}
	return load
}

// MaxLoad returns LOAD(S) = max_e d(S(e)).
func (in *Instance) MaxLoad(tasks []Task) int64 {
	var mx int64
	for _, l := range in.Load(tasks) {
		if l > mx {
			mx = l
		}
	}
	return mx
}

// IsDeltaSmall reports whether task t is δ-small, i.e. num/den ≥ d_j / b(j)
// (d_j ≤ δ·b(j) with δ = num/den evaluated exactly in integers). The
// comparison is exact for the full int64 range: the cross products are
// formed in 128 bits, so magnitude-limit demands combined with huge
// denominators cannot wrap (negative num or den would make the rational
// meaningless and reports not-small).
func (in *Instance) IsDeltaSmall(t Task, num, den int64) bool {
	if num < 0 || den <= 0 {
		return false
	}
	// d <= (num/den)*b  <=>  d*den <= num*b, compared in 128 bits.
	lhsHi, lhsLo := bits.Mul64(uint64(t.Demand), uint64(den))
	rhsHi, rhsLo := bits.Mul64(uint64(num), uint64(in.Bottleneck(t)))
	return lhsHi < rhsHi || (lhsHi == rhsHi && lhsLo <= rhsLo)
}

// IsDeltaLarge reports whether task t is δ-large: d_j > δ·b(j) with
// δ = num/den.
func (in *Instance) IsDeltaLarge(t Task, num, den int64) bool {
	return !in.IsDeltaSmall(t, num, den)
}

// SplitDelta partitions the tasks into the δ-small and δ-large subsets for
// δ = num/den.
func (in *Instance) SplitDelta(num, den int64) (small, large []Task) {
	for _, t := range in.Tasks {
		if in.IsDeltaSmall(t, num, den) {
			small = append(small, t)
		} else {
			large = append(large, t)
		}
	}
	return small, large
}

// Uniform reports whether all edge capacities are equal (a SAP-U / UFPP-U
// instance).
func (in *Instance) Uniform() bool {
	for _, c := range in.Capacity {
		if c != in.Capacity[0] {
			return false
		}
	}
	return true
}

// Restrict returns a new instance containing only the given tasks (same
// path). The tasks must belong to the instance's path.
//
// The capacity slice is SHARED with the receiver, not copied — a copy-on-
// write contract, not an implementation detail: the shard decomposition
// layer windows the capacity profile once per shard, the combined
// pipeline builds its per-arm sub-instances on the same profile, and
// re-copying the profile each time dominated the partition cost. Capacity
// slices are read-only throughout the library; code that needs to modify
// capacities must go through ClipCapacities or Clone, which allocate fresh
// slices, or write a clipped copy into its own scratch memory.
// TestRestrictSharesCapacity and difftest's shard suite pin this contract:
// a restricted or sharded solve must never mutate the parent's capacities.
func (in *Instance) Restrict(tasks []Task) *Instance {
	return &Instance{Capacity: in.Capacity, Tasks: append([]Task(nil), tasks...)}
}

// ClipCapacities returns a copy of the instance whose edge capacities are
// clipped from above to hi (capacities below hi are unchanged). Per
// Observation 2 of the paper, for a task set whose bottlenecks are all < hi
// this does not change the feasible SAP solutions.
func (in *Instance) ClipCapacities(hi int64) *Instance {
	out := in.Clone()
	for e, c := range out.Capacity {
		if c > hi {
			out.Capacity[e] = hi
		}
	}
	return out
}

// Placement is one scheduled task: the task itself plus its assigned height.
type Placement struct {
	Task   Task
	Height int64
}

// Top returns Height + Demand, the top of the placed rectangle.
func (p Placement) Top() int64 { return p.Height + p.Task.Demand }

// Solution is a SAP solution: a set of placed tasks. A Solution with all
// heights zero can also represent a UFPP solution (use ValidUFPP).
type Solution struct {
	Items []Placement
}

// NewSolution builds a solution from tasks and a parallel heights slice.
func NewSolution(tasks []Task, heights []int64) *Solution {
	if len(tasks) != len(heights) {
		panic("model: tasks and heights length mismatch")
	}
	s := &Solution{Items: make([]Placement, len(tasks))}
	for i := range tasks {
		s.Items[i] = Placement{Task: tasks[i], Height: heights[i]}
	}
	return s
}

// Weight returns the total weight of the scheduled tasks.
func (s *Solution) Weight() int64 {
	var w int64
	for _, p := range s.Items {
		w += p.Task.Weight
	}
	return w
}

// Tasks returns the scheduled task set.
func (s *Solution) Tasks() []Task {
	out := make([]Task, len(s.Items))
	for i, p := range s.Items {
		out[i] = p.Task
	}
	return out
}

// Len returns the number of scheduled tasks.
func (s *Solution) Len() int { return len(s.Items) }

// Clone deep-copies the solution.
func (s *Solution) Clone() *Solution {
	return &Solution{Items: append([]Placement(nil), s.Items...)}
}

// Lift adds delta to the height of every placement and returns s.
func (s *Solution) Lift(delta int64) *Solution {
	for i := range s.Items {
		s.Items[i].Height += delta
	}
	return s
}

// SortByID orders the placements by task ID (for deterministic output).
// slices.SortFunc runs the same pdqsort as sort.Slice, so placements with
// equal IDs end up where sort.Slice put them, without its reflection
// allocations.
func (s *Solution) SortByID() *Solution {
	slices.SortFunc(s.Items, func(p, q Placement) int { return cmp.Compare(p.Task.ID, q.Task.ID) })
	return s
}

// Makespan returns μ_h(S(e)) per edge: the maximum top among placements
// using each edge (0 where no task runs).
func (s *Solution) Makespan(m int) []int64 {
	mu := make([]int64, m)
	for _, p := range s.Items {
		top := p.Top()
		for e := p.Task.Start; e < p.Task.End; e++ {
			if top > mu[e] {
				mu[e] = top
			}
		}
	}
	return mu
}

// MaxMakespan returns the maximum edge makespan of the solution.
func (s *Solution) MaxMakespan(m int) int64 {
	var mx int64
	for _, v := range s.Makespan(m) {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// Packable reports whether the solution is B-packable: every edge makespan
// is at most B (Section 2 of the paper).
func (s *Solution) Packable(m int, b int64) bool {
	return s.MaxMakespan(m) <= b
}

// ErrInfeasible is wrapped by all validation failures reported by
// ValidSAP/ValidUFPP.
var ErrInfeasible = errors.New("infeasible solution")

// ValidSAP checks that the solution is a feasible SAP solution for the
// instance: no duplicate tasks, every task belongs to the instance,
// non-negative heights, capacity respected on every edge of every task, and
// vertically disjoint rectangles for tasks whose paths intersect. It returns
// nil when feasible and an error wrapping ErrInfeasible describing the first
// violation otherwise.
func ValidSAP(in *Instance, s *Solution) error {
	b := getBufs()
	defer putBufs(b)
	flags := b.memberFlags(in.Tasks, s.Items)
	for i, p := range s.Items {
		switch flags[i] {
		case notInInstance:
			return fmt.Errorf("%w: %v not in instance", ErrInfeasible, p.Task)
		case scheduledTwice:
			return fmt.Errorf("%w: task id %d scheduled twice", ErrInfeasible, p.Task.ID)
		}
		if p.Height < 0 {
			return fmt.Errorf("%w: task id %d has negative height %d", ErrInfeasible, p.Task.ID, p.Height)
		}
		for e := p.Task.Start; e < p.Task.End; e++ {
			if p.Top() > in.Capacity[e] {
				return fmt.Errorf("%w: task id %d tops at %d above capacity %d of edge %d",
					ErrInfeasible, p.Task.ID, p.Top(), in.Capacity[e], e)
			}
		}
	}
	// Pairwise vertical disjointness on intersecting paths. A sweep keeps
	// the check near-linear for typical instances: sort by Start and compare
	// each placement against the actives overlapping it.
	items := append(b.pls[:0], s.Items...)
	b.pls = items
	slices.SortFunc(items, func(p, q Placement) int { return cmp.Compare(p.Task.Start, q.Task.Start) })
	actives := b.actives[:0]
	defer func() { b.actives = actives }()
	for _, p := range items {
		keep := actives[:0]
		for _, a := range actives {
			if a.end > p.Task.Start {
				keep = append(keep, a)
			}
		}
		actives = keep
		for _, a := range actives {
			if p.Height < a.top && a.bottom < p.Top() {
				return fmt.Errorf("%w: tasks id %d and id %d overlap vertically on shared edges",
					ErrInfeasible, a.id, p.Task.ID)
			}
		}
		actives = append(actives, sweepActive{end: p.Task.End, bottom: p.Height, top: p.Top(), id: p.Task.ID})
	}
	return nil
}

// sweepActive is a placement ValidSAP's sweep has passed whose interval may
// still overlap the next one.
type sweepActive struct {
	end    int
	bottom int64
	top    int64
	id     int
}

// Placement checks of memberFlags.
const (
	notInInstance  = 1 // no instance task has the ID, or it differs
	scheduledTwice = 2 // an earlier placement has the same ID
)

// memberFlags returns, for each placement, notInInstance when the instance
// has no task equal to the placed one under its ID, scheduledTwice when an
// earlier placement has the same ID, and 0 otherwise. Where the instance
// repeats an ID, the last of its tasks is the one compared, as a lookup
// table filled in order would hold. The placements and tasks meet through
// two index sorts by (ID, position) in pooled memory, not through maps.
func (b *bufs) memberFlags(tasks []Task, items []Placement) []uint8 {
	to := indices(b.ord, len(tasks))
	slices.SortFunc(to, func(x, y int) int {
		if c := cmp.Compare(tasks[x].ID, tasks[y].ID); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	po := indices(b.ord2, len(items))
	slices.SortFunc(po, func(x, y int) int {
		if c := cmp.Compare(items[x].Task.ID, items[y].Task.ID); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	flags := append(b.flags[:0], make([]uint8, len(items))...)
	b.ord, b.ord2, b.flags = to, po, flags
	j := 0
	for k, pi := range po {
		id := items[pi].Task.ID
		for j < len(to) && tasks[to[j]].ID < id {
			j++
		}
		last := j
		for last+1 < len(to) && tasks[to[last+1]].ID == id {
			last++
		}
		switch {
		case j == len(to) || tasks[to[last]] != items[pi].Task:
			flags[pi] = notInInstance
		case k > 0 && items[po[k-1]].Task.ID == id:
			flags[pi] = scheduledTwice
		}
	}
	return flags
}

// ValidUFPP checks that the given task set is a feasible UFPP solution:
// every task belongs to the instance, no duplicates, and the load on every
// edge is within its capacity.
func ValidUFPP(in *Instance, tasks []Task) error {
	byID := make(map[int]Task, len(in.Tasks))
	for _, t := range in.Tasks {
		byID[t.ID] = t
	}
	used := make(map[int]bool, len(tasks))
	for _, t := range tasks {
		it, ok := byID[t.ID]
		if !ok || it != t {
			return fmt.Errorf("%w: %v not in instance", ErrInfeasible, t)
		}
		if used[t.ID] {
			return fmt.Errorf("%w: task id %d selected twice", ErrInfeasible, t.ID)
		}
		used[t.ID] = true
	}
	for e, l := range in.Load(tasks) {
		if l > in.Capacity[e] {
			return fmt.Errorf("%w: load %d exceeds capacity %d on edge %d", ErrInfeasible, l, in.Capacity[e], e)
		}
	}
	return nil
}

// WeightOf sums the weights of a task slice.
func WeightOf(tasks []Task) int64 {
	var w int64
	for _, t := range tasks {
		w += t.Weight
	}
	return w
}

// DemandOf sums the demands of a task slice (d(S) in the paper).
func DemandOf(tasks []Task) int64 {
	var d int64
	for _, t := range tasks {
		d += t.Demand
	}
	return d
}
