// Package window implements the time-window extension of the storage
// allocation problem that the paper's related-work section attributes to
// Bar-Noy et al. [5] and Leonardi, Marchetti-Spaccamela and Vitaletti [26]:
// each task additionally has a window [Release, Deadline) inside which its
// (fixed-length) interval may slide. Scheduling now chooses, per selected
// task, both a start offset and a height; with Release+Length = Deadline
// the problem degenerates to plain SAP.
//
// The package provides an exact solver, which hands every start offset to
// exact's branch-and-bound as one placement choice of the task (the
// grounded-solution exchange argument of Observation 11 extends verbatim
// when the branching enumerates (task, offset) pairs and always places at
// the lowest feasible slot for the chosen offset), and a density-greedy
// heuristic, plus the experiment E23 material: how window slack buys
// admitted weight.
package window

import (
	"errors"
	"fmt"

	"sapalloc/internal/model"
)

// Task is a windowed request: a fixed Length (in edges) that may be placed
// at any start s with Release ≤ s and s+Length ≤ Deadline.
type Task struct {
	ID                int
	Release, Deadline int // window of allowed edges, half-open
	Length            int // occupied edges
	Demand            int64
	Weight            int64
}

// Offsets returns the number of allowed start positions.
func (t Task) Offsets() int { return t.Deadline - t.Release - t.Length + 1 }

// Instance is a windowed SAP instance.
type Instance struct {
	Capacity []int64
	Tasks    []Task
}

// Edges returns the path length.
func (in *Instance) Edges() int { return len(in.Capacity) }

// Validate checks structural well-formedness.
func (in *Instance) Validate() error {
	m := in.Edges()
	for e, c := range in.Capacity {
		if c <= 0 {
			return fmt.Errorf("edge %d: capacity %d is not positive", e, c)
		}
	}
	seen := map[int]bool{}
	for i, t := range in.Tasks {
		if t.Release < 0 || t.Deadline > m || t.Deadline < t.Release ||
			t.Length < 1 || t.Length > t.Deadline-t.Release {
			return fmt.Errorf("task %d (id %d): window [%d,%d) cannot hold length %d", i, t.ID, t.Release, t.Deadline, t.Length)
		}
		if t.Demand <= 0 {
			return fmt.Errorf("task %d (id %d): demand %d is not positive", i, t.ID, t.Demand)
		}
		if t.Weight < 0 {
			return fmt.Errorf("task %d (id %d): negative weight", i, t.ID)
		}
		if seen[t.ID] {
			return fmt.Errorf("task %d: duplicate id %d", i, t.ID)
		}
		seen[t.ID] = true
	}
	return nil
}

// Placement is a scheduled windowed task: chosen start and height.
type Placement struct {
	Task   Task
	Start  int
	Height int64
}

// End returns the chosen interval's end vertex.
func (p Placement) End() int { return p.Start + p.Task.Length }

// Top returns Height+Demand.
func (p Placement) Top() int64 { return p.Height + p.Task.Demand }

// Solution is a set of placements.
type Solution struct {
	Items []Placement
}

// Weight sums the scheduled weights.
func (s *Solution) Weight() int64 {
	var w int64
	for _, p := range s.Items {
		w += p.Task.Weight
	}
	return w
}

// Len returns the number of scheduled tasks.
func (s *Solution) Len() int { return len(s.Items) }

// ErrInfeasible wraps validation failures.
var ErrInfeasible = errors.New("window: infeasible solution")

// Valid checks feasibility: windows respected, capacities respected, and
// vertical disjointness where chosen intervals overlap.
func Valid(in *Instance, s *Solution) error {
	byID := map[int]Task{}
	for _, t := range in.Tasks {
		byID[t.ID] = t
	}
	used := map[int]bool{}
	for _, p := range s.Items {
		t, ok := byID[p.Task.ID]
		if !ok || t != p.Task {
			return fmt.Errorf("%w: task id %d not in instance", ErrInfeasible, p.Task.ID)
		}
		if used[p.Task.ID] {
			return fmt.Errorf("%w: task id %d scheduled twice", ErrInfeasible, p.Task.ID)
		}
		used[p.Task.ID] = true
		if p.Start < t.Release || p.End() > t.Deadline {
			return fmt.Errorf("%w: task id %d placed at [%d,%d) outside window [%d,%d)",
				ErrInfeasible, t.ID, p.Start, p.End(), t.Release, t.Deadline)
		}
		if p.Height < 0 {
			return fmt.Errorf("%w: task id %d below height 0", ErrInfeasible, t.ID)
		}
		for e := p.Start; e < p.End(); e++ {
			if p.Top() > in.Capacity[e] {
				return fmt.Errorf("%w: task id %d tops %d above capacity %d at edge %d",
					ErrInfeasible, t.ID, p.Top(), in.Capacity[e], e)
			}
		}
	}
	for i := 0; i < len(s.Items); i++ {
		for j := i + 1; j < len(s.Items); j++ {
			a, b := s.Items[i], s.Items[j]
			if a.Start < b.End() && b.Start < a.End() &&
				a.Height < b.Top() && b.Height < a.Top() {
				return fmt.Errorf("%w: tasks id %d and id %d overlap", ErrInfeasible, a.Task.ID, b.Task.ID)
			}
		}
	}
	return nil
}

// Fixed converts a plain SAP instance into the windowed form with zero
// slack (window = interval), for cross-checking against the SAP solvers.
func Fixed(in *model.Instance) *Instance {
	out := &Instance{Capacity: append([]int64(nil), in.Capacity...)}
	for _, t := range in.Tasks {
		out.Tasks = append(out.Tasks, Task{
			ID: t.ID, Release: t.Start, Deadline: t.End,
			Length: t.End - t.Start, Demand: t.Demand, Weight: t.Weight,
		})
	}
	return out
}

// Widen returns a copy of the instance with every window expanded by slack
// edges on each side (clamped to the path). Slack 0 returns an identical
// copy.
func Widen(in *Instance, slack int) *Instance {
	out := &Instance{Capacity: append([]int64(nil), in.Capacity...)}
	m := in.Edges()
	for _, t := range in.Tasks {
		r := t.Release - slack
		if r < 0 {
			r = 0
		}
		d := t.Deadline + slack
		if d > m {
			d = m
		}
		t.Release, t.Deadline = r, d
		out.Tasks = append(out.Tasks, t)
	}
	return out
}
