package model

import (
	"fmt"
	"sort"

	"sapalloc/internal/saperr"
)

// Orientation selects which of the two arcs a ring task is routed on.
type Orientation int

const (
	// Clockwise routes a ring task from Start forward to End, using edges
	// Start, Start+1, ..., End-1 (indices mod m).
	Clockwise Orientation = iota
	// CounterClockwise routes a ring task the other way around the cycle,
	// using edges End, End+1, ..., Start-1 (indices mod m).
	CounterClockwise
)

func (o Orientation) String() string {
	if o == Clockwise {
		return "cw"
	}
	return "ccw"
}

// RingTask is a request on a ring: endpoints Start and End (distinct
// vertices of the cycle), a demand and a weight. Either arc between the
// endpoints may carry the task (Section 7 of the paper).
type RingTask struct {
	ID         int
	Start, End int // distinct vertices in 0..m-1
	Demand     int64
	Weight     int64
}

// RingInstance is a SAP instance on a cycle with m = len(Capacity) edges and
// m vertices; edge e connects vertices e and (e+1) mod m.
type RingInstance struct {
	Capacity []int64
	Tasks    []RingTask
}

// Edges returns the number of edges (= vertices) of the ring.
func (r *RingInstance) Edges() int { return len(r.Capacity) }

// Validate checks structural well-formedness of the ring instance. Like
// Instance.Validate it is a trust boundary: every error wraps
// saperr.ErrInfeasibleInput and the same size/magnitude limits apply.
func (r *RingInstance) Validate() error {
	m := r.Edges()
	if m < 3 {
		return saperr.Input("ring needs at least 3 edges, have %d", m)
	}
	if m > MaxEdges {
		return saperr.Input("%d edges exceed the limit of %d", m, MaxEdges)
	}
	if len(r.Tasks) > MaxTasks {
		return saperr.Input("%d tasks exceed the limit of %d", len(r.Tasks), MaxTasks)
	}
	for e, c := range r.Capacity {
		if c <= 0 {
			return saperr.Input("edge %d: capacity %d is not positive", e, c)
		}
		if c > MaxMagnitude {
			return saperr.Input("edge %d: capacity %d exceeds the magnitude limit %d", e, c, int64(MaxMagnitude))
		}
	}
	for i, t := range r.Tasks {
		if t.Start < 0 || t.Start >= m || t.End < 0 || t.End >= m || t.Start == t.End {
			return duplicateBefore(r.Tasks[:i], saperr.Input("task %d (id %d): endpoints (%d,%d) invalid on ring with %d vertices", i, t.ID, t.Start, t.End, m))
		}
		if err := amountError(i, Task(t)); err != nil {
			return duplicateBefore(r.Tasks[:i], err)
		}
	}
	return duplicateBefore(r.Tasks, nil)
}

// ArcEndpoints returns (from, to) for the task's arc under orientation o:
// the arc uses edges from, from+1, …, to-1, indices mod m.
func (t RingTask) ArcEndpoints(o Orientation) (from, to int) {
	if o == Clockwise {
		return t.Start, t.End
	}
	return t.End, t.Start
}

// ArcUses reports whether the task's arc under orientation o uses ring edge
// e, on a ring with m edges. Pure index arithmetic — no arc materialization.
func (t RingTask) ArcUses(o Orientation, e, m int) bool {
	from, to := t.ArcEndpoints(o)
	span := ((to-from)%m + m) % m
	off := ((e-from)%m + m) % m
	return off < span
}

// ArcEdges returns the edges (ring edge indices) used by task t under the
// given orientation. Hot paths should prefer ForEachArcEdge or
// BottleneckIndex.ArcMin, which avoid the allocation.
func (r *RingInstance) ArcEdges(t RingTask, o Orientation) []int {
	var edges []int
	r.ForEachArcEdge(t, o, func(e int) bool {
		edges = append(edges, e)
		return true
	})
	return edges
}

// ForEachArcEdge calls fn for every edge of the task's arc under the given
// orientation, in arc order, without materializing the edge slice. fn
// returning false stops the walk.
func (r *RingInstance) ForEachArcEdge(t RingTask, o Orientation, fn func(e int) bool) {
	m := r.Edges()
	from, to := t.ArcEndpoints(o)
	for v := from; v != to; v = (v + 1) % m {
		if !fn(v) {
			return
		}
	}
}

// ArcBottleneck returns the minimum capacity along the task's arc under the
// given orientation. The arc is walked in place; callers issuing many
// queries against the same ring should build Index once and use
// BottleneckIndex.ArcMin, which answers in O(1) (one RangeMin for a
// non-wrapping arc, two for a wrapping one).
func (r *RingInstance) ArcBottleneck(t RingTask, o Orientation) int64 {
	m := r.Edges()
	from, to := t.ArcEndpoints(o)
	b := r.Capacity[from]
	for v := (from + 1) % m; v != to; v = (v + 1) % m {
		if r.Capacity[v] < b {
			b = r.Capacity[v]
		}
	}
	return b
}

// Index builds the ring's sparse-table bottleneck index; arc queries go
// through BottleneckIndex.ArcMin.
func (r *RingInstance) Index() *BottleneckIndex {
	return NewBottleneckIndex(r.Capacity)
}

// RingPlacement is one scheduled ring task: orientation plus height.
type RingPlacement struct {
	Task        RingTask
	Orientation Orientation
	Height      int64
}

// Top returns Height + Demand.
func (p RingPlacement) Top() int64 { return p.Height + p.Task.Demand }

// RingSolution is a feasible-triple (S, h, I) candidate for SAP on rings.
type RingSolution struct {
	Items []RingPlacement
}

// Weight returns the total scheduled weight.
func (s *RingSolution) Weight() int64 {
	var w int64
	for _, p := range s.Items {
		w += p.Task.Weight
	}
	return w
}

// Len returns the number of scheduled tasks.
func (s *RingSolution) Len() int { return len(s.Items) }

// ValidRingSAP checks feasibility of a ring SAP solution: capacity on every
// arc edge and vertical disjointness of tasks whose chosen arcs share an
// edge.
func ValidRingSAP(r *RingInstance, s *RingSolution) error {
	byID := make(map[int]RingTask, len(r.Tasks))
	for _, t := range r.Tasks {
		byID[t.ID] = t
	}
	used := make(map[int]bool, len(s.Items))
	type occ struct {
		bottom, top int64
		id          int
	}
	perEdge := make([][]occ, r.Edges())
	for _, p := range s.Items {
		t, ok := byID[p.Task.ID]
		if !ok || t != p.Task {
			return fmt.Errorf("%w: ring task id %d not in instance", ErrInfeasible, p.Task.ID)
		}
		if used[p.Task.ID] {
			return fmt.Errorf("%w: ring task id %d scheduled twice", ErrInfeasible, p.Task.ID)
		}
		used[p.Task.ID] = true
		if p.Height < 0 {
			return fmt.Errorf("%w: ring task id %d has negative height", ErrInfeasible, p.Task.ID)
		}
		var capErr error
		r.ForEachArcEdge(p.Task, p.Orientation, func(e int) bool {
			if p.Top() > r.Capacity[e] {
				capErr = fmt.Errorf("%w: ring task id %d tops at %d above capacity %d of edge %d",
					ErrInfeasible, p.Task.ID, p.Top(), r.Capacity[e], e)
				return false
			}
			perEdge[e] = append(perEdge[e], occ{bottom: p.Height, top: p.Top(), id: p.Task.ID})
			return true
		})
		if capErr != nil {
			return capErr
		}
	}
	for e, occs := range perEdge {
		sort.Slice(occs, func(i, j int) bool { return occs[i].bottom < occs[j].bottom })
		for i := 1; i < len(occs); i++ {
			if occs[i].bottom < occs[i-1].top {
				return fmt.Errorf("%w: ring tasks id %d and id %d overlap vertically on edge %d",
					ErrInfeasible, occs[i-1].id, occs[i].id, e)
			}
		}
	}
	return nil
}

// CutAt removes ring edge cut and returns the equivalent path instance for
// tasks NOT routed through that edge, plus the mapping from path-task IDs to
// ring-task IDs (identity: IDs are preserved). Vertices are renumbered so
// that ring vertex (cut+1) mod m becomes path vertex 0. Every ring task is
// included with the unique arc that avoids the cut edge.
func (r *RingInstance) CutAt(cut int) *Instance {
	m := r.Edges()
	// Path edge p corresponds to ring edge (cut+1+p) mod m for p in 0..m-2.
	capacity := make([]int64, m-1)
	for p := 0; p < m-1; p++ {
		capacity[p] = r.Capacity[(cut+1+p)%m]
	}
	// Ring vertex v maps to path vertex (v - (cut+1)) mod m in 0..m-1.
	vmap := func(v int) int { return ((v-(cut+1))%m + m) % m }
	var tasks []Task
	for _, t := range r.Tasks {
		a, b := vmap(t.Start), vmap(t.End)
		if a > b {
			a, b = b, a
		}
		// The arc from path vertex a to b avoids the cut edge; the other arc
		// uses it. a < b always holds here since Start != End.
		tasks = append(tasks, Task{ID: t.ID, Start: a, End: b, Demand: t.Demand, Weight: t.Weight})
	}
	return &Instance{Capacity: capacity, Tasks: tasks}
}

// MinCapacityEdge returns the index of a minimum-capacity ring edge.
func (r *RingInstance) MinCapacityEdge() int {
	best := 0
	for e, c := range r.Capacity {
		if c < r.Capacity[best] {
			best = e
		}
	}
	return best
}
