package model

import (
	"fmt"
	"sort"

	"sapalloc/internal/saperr"
)

// Reference validators: the map-based forms Validate, RingInstance.Validate
// and ValidSAP had before they sorted in pooled memory. The fuzz targets
// check that the pooled forms report the same first error, word for word.

func refValidate(in *Instance) error {
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
	seen := make(map[int]bool, len(in.Tasks))
	var demandSum, weightSum int64
	for i, t := range in.Tasks {
		if t.Start < 0 || t.End > m || t.Start >= t.End {
			return saperr.Input("task %d (id %d): interval [%d,%d) outside path with %d edges", i, t.ID, t.Start, t.End, m)
		}
		if err := refAmountError(i, t); err != nil {
			return err
		}
		if seen[t.ID] {
			return saperr.Input("task %d: duplicate id %d", i, t.ID)
		}
		seen[t.ID] = true
		if demandSum += t.Demand; demandSum < 0 {
			return saperr.Input("task %d (id %d): demand sum overflows int64", i, t.ID)
		}
		if weightSum += t.Weight; weightSum < 0 {
			return saperr.Input("task %d (id %d): weight sum overflows int64", i, t.ID)
		}
	}
	return nil
}

func refAmountError(i int, t Task) error {
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

func refRingValidate(r *RingInstance) error {
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
	seen := make(map[int]bool, len(r.Tasks))
	for i, t := range r.Tasks {
		if t.Start < 0 || t.Start >= m || t.End < 0 || t.End >= m || t.Start == t.End {
			return saperr.Input("task %d (id %d): endpoints (%d,%d) invalid on ring with %d vertices", i, t.ID, t.Start, t.End, m)
		}
		if err := refAmountError(i, Task(t)); err != nil {
			return err
		}
		if seen[t.ID] {
			return saperr.Input("task %d: duplicate id %d", i, t.ID)
		}
		seen[t.ID] = true
	}
	return nil
}

func refValidSAP(in *Instance, s *Solution) error {
	byID := make(map[int]Task, len(in.Tasks))
	for _, t := range in.Tasks {
		byID[t.ID] = t
	}
	used := make(map[int]bool, len(s.Items))
	for _, p := range s.Items {
		t, ok := byID[p.Task.ID]
		if !ok || t != p.Task {
			return fmt.Errorf("%w: %v not in instance", ErrInfeasible, p.Task)
		}
		if used[p.Task.ID] {
			return fmt.Errorf("%w: task id %d scheduled twice", ErrInfeasible, p.Task.ID)
		}
		used[p.Task.ID] = true
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
	items := append([]Placement(nil), s.Items...)
	sort.Slice(items, func(i, j int) bool { return items[i].Task.Start < items[j].Task.Start })
	type active struct {
		end    int
		bottom int64
		top    int64
		id     int
	}
	var actives []active
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
		actives = append(actives, active{end: p.Task.End, bottom: p.Height, top: p.Top(), id: p.Task.ID})
	}
	return nil
}

// sameError reports whether two validator results agree: both nil, or
// both errors with the same text.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}
