package window

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"sapalloc/internal/exact"
	"sapalloc/internal/faultinject"
	"sapalloc/internal/model"
	"sapalloc/internal/saperr"
)

// Options bounds the exact search.
type Options struct {
	// MaxNodes caps the branch-and-bound node count (0 = 20 million).
	// Negative values are rejected with a typed saperr input error: the
	// old behaviour passed them through, so the budget check tripped on
	// node 1 and SolveExact silently returned the greedy incumbent with
	// ErrBudget — indistinguishable from a genuinely exhausted search.
	MaxNodes int64
}

func (o Options) withDefaults() (Options, error) {
	if o.MaxNodes < 0 {
		return o, saperr.Input("window: MaxNodes %d is negative", o.MaxNodes)
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 20_000_000
	}
	return o, nil
}

// ErrBudget is returned (with the incumbent) when the node cap is hit.
var ErrBudget = errors.New("window: search budget exhausted")

// ErrTooLarge rejects instances beyond the exact search's limits.
var ErrTooLarge = errors.New("window: instance too large for exact solver")

// MaxTasks caps the exact solver's task count.
const MaxTasks = 30

// SolveExact computes an optimal windowed-SAP solution by branch and bound.
// It is SolveExactCtx without cancellation, kept for callers that have no
// context to thread.
func SolveExact(in *Instance, opts Options) (*Solution, error) {
	return SolveExactCtx(context.Background(), in, opts)
}

// SolveExactCtx computes an optimal windowed-SAP solution with exact's
// branch-and-bound: every start offset of a task's window is one of the
// task's placement choices, and the search branches on the offset as well
// as on the next task, placing each at its lowest feasible height for that
// offset. The exchange argument of Observation 11 applies to each fixed
// offset assignment, so the search is complete. Instances with more than
// MaxTasks tasks or exact.MaxChoices start offsets in total are rejected
// with ErrTooLarge.
//
// Cancellation is cooperative: the search polls the context every 1024
// nodes, and on cancellation the best incumbent found so far (always at
// least the greedy seed, which is feasible) is returned alongside a typed
// saperr cancellation error.
func SolveExactCtx(ctx context.Context, in *Instance, opts Options) (*Solution, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	n := len(in.Tasks)
	if n > MaxTasks {
		return nil, fmt.Errorf("%w: %d tasks (max %d)", ErrTooLarge, n, MaxTasks)
	}
	offsets := 0
	for _, t := range in.Tasks {
		o := max(t.Offsets(), 0)
		if o > exact.MaxChoices-offsets {
			return nil, fmt.Errorf("%w: more than %d start offsets", ErrTooLarge, exact.MaxChoices)
		}
		offsets += o
	}
	faultinject.Fire(ctx, "window/solve")
	if err := saperr.FromContext(ctx); err != nil {
		return nil, err
	}
	// Alternative k of task i is its interval slid to start Release+k; the
	// alternative's ID is the task's index.
	alts := make([][]model.Task, n)
	backing := make([]model.Task, 0, offsets)
	for i, t := range in.Tasks {
		first := len(backing)
		for k := 0; k < t.Offsets(); k++ {
			s := t.Release + k
			backing = append(backing, model.Task{ID: i, Start: s, End: s + t.Length, Demand: t.Demand, Weight: t.Weight})
		}
		alts[i] = backing[first:len(backing):len(backing)]
	}
	ssol, err := exact.SolveChoicesCtx(ctx, in.Capacity, alts, exact.Options{MaxNodes: opts.MaxNodes})
	if ssol == nil {
		return nil, err
	}
	if errors.Is(err, exact.ErrBudget) {
		err = ErrBudget
	}
	sol := &Solution{}
	if len(ssol.Items) > 0 {
		sol.Items = make([]Placement, len(ssol.Items))
	}
	for k, p := range ssol.Items {
		sol.Items[k] = Placement{Task: in.Tasks[p.Task.ID], Start: p.Task.Start, Height: p.Height}
	}
	return sol, err
}

// Greedy schedules tasks in decreasing weight/demand·length density,
// choosing for each the offset with the lowest feasible height. It is the
// heuristic arm for windowed instances past the exact search's limits.
func Greedy(in *Instance) *Solution {
	order := make([]int, len(in.Tasks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := in.Tasks[order[a]], in.Tasks[order[b]]
		la := ta.Weight * tb.Demand * int64(tb.Length)
		lb := tb.Weight * ta.Demand * int64(ta.Length)
		if la != lb {
			return la > lb
		}
		return ta.ID < tb.ID
	})
	sol := &Solution{}
	for _, ti := range order {
		t := in.Tasks[ti]
		best := Placement{Task: t, Height: -1}
		for k := 0; k < t.Offsets(); k++ {
			if h := lowestSlot(in, sol.Items, t, t.Release+k); h >= 0 && (best.Height < 0 || h < best.Height) {
				best.Start, best.Height = t.Release+k, h
			}
		}
		if best.Height >= 0 {
			sol.Items = append(sol.Items, best)
		}
	}
	return sol
}

// lowestSlot returns the lowest height at which t fits on the interval
// starting at start, under the capacity there and clear of every placement
// it overlaps, or -1 when it fits nowhere. The lowest such height is 0 or
// the top of one of those placements.
func lowestSlot(in *Instance, placed []Placement, t Task, start int) int64 {
	end := start + t.Length
	ceiling := slices.Min(in.Capacity[start:end])
	best := int64(-1)
	try := func(h int64) {
		if h+t.Demand > ceiling || (best >= 0 && h >= best) {
			return
		}
		for _, p := range placed {
			if p.Start < end && start < p.End() && h < p.Top() && p.Height < h+t.Demand {
				return
			}
		}
		best = h
	}
	try(0)
	for _, p := range placed {
		if p.Start < end && start < p.End() {
			try(p.Top())
		}
	}
	return best
}
