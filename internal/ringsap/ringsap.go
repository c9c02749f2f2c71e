// Package ringsap implements Section 7 of the paper: the (10+ε)-
// approximation for SAP on ring networks (Theorem 5).
//
// Per Lemma 18, a minimum-capacity edge e is removed; the (9+ε) path
// algorithm handles the tasks routed away from e, and a knapsack FPTAS
// handles the tasks routed through e (every task may be routed through e,
// and since c_e is the ring minimum, a bottom-up stack of any feasible
// knapsack selection fits under every edge of the ring). The heavier of the
// two solutions is a (1 + (9+ε') + ε)-approximation.
package ringsap

import (
	"context"
	"fmt"
	"sort"

	"sapalloc/internal/core"
	"sapalloc/internal/faultinject"
	"sapalloc/internal/knapsack"
	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/par"
	"sapalloc/internal/saperr"
)

// Params configures the ring solver.
type Params struct {
	// Eps is used both for the knapsack FPTAS and the path algorithm
	// (default 0.5).
	Eps float64
	// Path configures the path-SAP arm.
	Path core.Params
	// Workers bounds the solver's goroutines: the cut-path and knapsack
	// sub-solves run concurrently (Lemma 18's two arms are independent) and
	// the knob is forwarded to the path arm's own Workers when unset.
	// 0 ⇒ GOMAXPROCS; 1 recovers the sequential pipeline. The Result is
	// identical for every value: arms land in fixed slots and the tie-break
	// stays path-before-knapsack.
	Workers int
}

func (p Params) withDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = 0.5
	}
	if p.Path.Workers == 0 {
		p.Path.Workers = p.Workers
	}
	return p
}

// Arm identifies which reduction arm won.
type Arm int

const (
	// ArmPath is the cut-edge path solution (tasks avoid the cut edge).
	ArmPath Arm = iota
	// ArmKnapsack is the stacked knapsack over tasks routed through the cut
	// edge.
	ArmKnapsack
)

// armSpanNames are the trace-span and fault-site names of the two arms,
// indexed by Arm.
var armSpanNames = [2]string{"ringsap/arm/path", "ringsap/arm/knapsack"}

func (a Arm) String() string {
	if a == ArmKnapsack {
		return "knapsack-through-cut"
	}
	return "path"
}

// Result reports the ring solution and diagnostics.
type Result struct {
	Solution *model.RingSolution
	Winner   Arm
	CutEdge  int
	// PathWeight and KnapsackWeight are the two arm weights.
	PathWeight, KnapsackWeight int64
	// PathDetail exposes the path arm's combined-solver diagnostics (nil
	// when the path arm failed or was cancelled — see Degraded/ArmErrs).
	PathDetail *core.Result
	// Degraded is true when one of the two arms failed or was cancelled
	// and the result is the other arm's solution alone. The (10+ε)
	// guarantee of Theorem 5 only holds when both arms ran.
	Degraded bool
	// ArmErrs records the per-arm typed errors behind a degraded result
	// (indexed by Arm; nil entries for arms that completed).
	ArmErrs [2]error
}

// Solve runs the ring algorithm of Theorem 5.
func Solve(r *model.RingInstance, p Params) (*Result, error) {
	return SolveCtx(context.Background(), r, p)
}

// SolveCtx is Solve under a context. The two reduction arms are each
// wrapped in panic containment and degrade independently: if one arm fails
// or is cancelled, the other arm's solution is returned with Degraded set.
// A typed error is returned only when neither arm produced a solution.
func SolveCtx(ctx context.Context, r *model.RingInstance, p Params) (res *Result, err error) {
	defer saperr.Contain(&err)
	ctx, endSolve := obs.StartSpan(ctx, "ringsap/solve")
	defer endSolve()
	p = p.withDefaults()
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("ringsap: %w", saperr.Input("%v", err))
	}
	if err := saperr.FromContext(ctx); err != nil {
		return nil, err
	}
	cut := r.MinCapacityEdge()
	res = &Result{CutEdge: cut}

	// The two reduction arms of Lemma 18 are independent: the path arm
	// solves the cut instance, the knapsack arm stacks tasks routed through
	// the cut edge. Run them concurrently; each is contained on its own, so
	// one arm panicking or timing out leaves the other's solution standing.
	outs := par.Run(ctx, len(armSpanNames), p.Workers, func(ctx context.Context, i int) (armOut, error) {
		ctx, endArm := obs.StartSpanTrack(ctx, armSpanNames[i])
		defer endArm()
		faultinject.Fire(ctx, armSpanNames[i])
		if Arm(i) == ArmPath {
			return solvePath(ctx, r, cut, p.Path)
		}
		return solveKnapsack(ctx, r, cut, p.Eps)
	})
	for i, out := range outs {
		if out.Err != nil {
			res.Degraded = true
			res.ArmErrs[i] = out.Err
		}
	}
	path, knap := outs[ArmPath], outs[ArmKnapsack]
	if path.Err != nil && knap.Err != nil {
		return nil, fmt.Errorf("ringsap: no arm completed: %w", res.ArmErrs[ArmPath])
	}
	res.PathDetail = path.Val.path
	if path.Err == nil {
		res.PathWeight = path.Val.sol.Weight()
	}
	if knap.Err == nil {
		res.KnapsackWeight = knap.Val.sol.Weight()
	}
	// Best-of over the arms that completed; fixed tie-break path-first.
	res.Solution, res.Winner = path.Val.sol, ArmPath
	if path.Err != nil || knap.Err == nil && res.KnapsackWeight > res.PathWeight {
		res.Solution, res.Winner = knap.Val.sol, ArmKnapsack
	}
	return res, nil
}

// armOut is what one arm returns: its ring solution and, for the path
// arm, the combined solver's result.
type armOut struct {
	sol  *model.RingSolution
	path *core.Result
}

// solvePath is the path arm: the combined path solver on the ring cut at
// edge cut, with every task routed on the arc avoiding the cut edge.
func solvePath(ctx context.Context, r *model.RingInstance, cut int, p core.Params) (armOut, error) {
	res, err := core.SolveCtx(ctx, r.CutAt(cut), p)
	if err != nil {
		return armOut{}, fmt.Errorf("ringsap: path arm: %w", err)
	}
	sol := &model.RingSolution{}
	for _, pl := range res.Solution.Items {
		rt, ok := ringTaskByID(r, pl.Task.ID)
		if !ok {
			return armOut{}, fmt.Errorf("ringsap: path solution refers to unknown task %d", pl.Task.ID)
		}
		sol.Items = append(sol.Items, model.RingPlacement{
			Task:        rt,
			Orientation: orientationAvoiding(r, rt, cut),
			Height:      pl.Height,
		})
	}
	return armOut{sol: sol, path: res}, nil
}

// solveKnapsack is the knapsack arm: a knapsack over all tasks routed
// through the cut edge, stacked bottom-up (h_2(j) = Σ_{ℓ<j, ℓ∈S₂} d_ℓ as in
// the paper).
func solveKnapsack(ctx context.Context, r *model.RingInstance, cut int, eps float64) (armOut, error) {
	items := make([]knapsack.Item, len(r.Tasks))
	for i, t := range r.Tasks {
		items[i] = knapsack.Item{Size: t.Demand, Profit: t.Weight}
	}
	chosen, _ := knapsack.SolveFPTASCtx(ctx, items, r.Capacity[cut], eps)
	if err := saperr.FromContext(ctx); err != nil {
		// The prefix-DP is anytime, but a selection truncated by
		// cancellation has no FPTAS guarantee: report the arm as
		// cancelled rather than completed.
		return armOut{}, fmt.Errorf("ringsap: knapsack arm: %w", err)
	}
	sort.Ints(chosen)
	sol := &model.RingSolution{}
	var h int64
	for _, i := range chosen {
		t := r.Tasks[i]
		sol.Items = append(sol.Items, model.RingPlacement{
			Task:        t,
			Orientation: orientationThrough(r, t, cut),
			Height:      h,
		})
		h += t.Demand
	}
	return armOut{sol: sol}, nil
}

func ringTaskByID(r *model.RingInstance, id int) (model.RingTask, bool) {
	for _, t := range r.Tasks {
		if t.ID == id {
			return t, true
		}
	}
	return model.RingTask{}, false
}

// orientationAvoiding returns the orientation whose arc does not use edge
// cut. Exactly one of the two arcs contains any given edge.
func orientationAvoiding(r *model.RingInstance, t model.RingTask, cut int) model.Orientation {
	if t.ArcUses(model.Clockwise, cut, r.Edges()) {
		return model.CounterClockwise
	}
	return model.Clockwise
}

// orientationThrough returns the orientation whose arc uses edge cut.
func orientationThrough(r *model.RingInstance, t model.RingTask, cut int) model.Orientation {
	if orientationAvoiding(r, t, cut) == model.Clockwise {
		return model.CounterClockwise
	}
	return model.Clockwise
}
