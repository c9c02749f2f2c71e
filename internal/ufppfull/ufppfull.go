// Package ufppfull assembles a combined approximation algorithm for UFPP
// itself — the Bonsma–Schulz–Wiese pipeline that the paper's SAP algorithm
// adapts (Section 1.2: "Our algorithm is based on the recent constant
// factor approximation algorithm for UFPP by Bonsma et al."). Having both
// pipelines side by side lets the experiment harness measure the price of
// contiguity: how much weight the storage-allocation constraint costs on
// identical workloads (experiment E22).
//
// The structure mirrors internal/core:
//
//   - small tasks: per bottleneck class J_t, a ½B-packable UFPP solution
//     (the same LP rounding Strip-Pack uses); classes spaced 2 apart are
//     combined, and the best of the two residues is kept. Halving the
//     capacity both absorbs the geometric overflow of lower classes and is
//     exactly what the SAP pipeline needs — so the comparison is apples to
//     apples.
//   - medium tasks: an AlmostUniform-style framework over classes J^{k,ℓ}
//     with residue spacing ℓ+1; each class is solved exactly (budgeted
//     branch and bound) on capacities min(c_e, 2^{k+ℓ})/2 — the halved
//     capacities make residue-class unions feasible by the geometric-sum
//     argument (Observation 1's analogue).
//   - large tasks: the rectangle MWIS of internal/largesap (a set of
//     pairwise disjoint rectangles is in particular a feasible UFPP
//     solution; Bonsma et al. prove a 2k factor for 1/k-large UFPP).
//
// The heaviest arm wins (Lemma 3).
package ufppfull

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"sapalloc/internal/classes"
	"sapalloc/internal/core"
	"sapalloc/internal/exact"
	"sapalloc/internal/faultinject"
	"sapalloc/internal/largesap"
	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/par"
	"sapalloc/internal/saperr"
	"sapalloc/internal/scratch"
	"sapalloc/internal/ufpp"
)

// Params configures the combined UFPP solver.
type Params struct {
	// Eps determines the medium framework's ℓ = ⌈2/ε⌉ (default 0.5).
	Eps float64
	// DeltaDen sets δ = 1/DeltaDen for the small/medium split (default 16).
	DeltaDen int64
	// Exact configures the per-class exact searches (budgeted).
	Exact exact.Options
	// Round tunes the small arm's LP rounding.
	Round ufpp.RoundOptions
	// Workers bounds concurrent class solves (0 ⇒ GOMAXPROCS).
	Workers int
}

func (p Params) withDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = 0.5
	}
	if p.DeltaDen <= 1 {
		p.DeltaDen = 16
	}
	if p.Exact.MaxNodes == 0 {
		p.Exact.MaxNodes = 500_000
	}
	return p
}

// Arm identifies the winning sub-algorithm.
type Arm int

const (
	ArmSmall Arm = iota
	ArmMedium
	ArmLarge
)

// armSpanNames are the trace-span and fault-site names per arm,
// precomputed so the disabled-tracing path does not pay a string
// concatenation.
var armSpanNames = [3]string{"ufppfull/arm/small", "ufppfull/arm/medium", "ufppfull/arm/large"}

func (a Arm) String() string {
	switch a {
	case ArmSmall:
		return "small/strip-classes"
	case ArmMedium:
		return "medium/almost-uniform"
	default:
		return "large/rectangle-packing"
	}
}

// Result reports the combined UFPP outcome.
type Result struct {
	Tasks  []model.Task
	Winner Arm
	// Per-arm weights.
	SmallWeight, MediumWeight, LargeWeight int64
	// Degraded is true when an arm failed or was cancelled; the result is
	// the best of the arms that completed, and the combined approximation
	// guarantee only covers those arms.
	Degraded bool
	// ArmErrs records per-arm typed errors (indexed by Arm; nil entries
	// for arms that completed).
	ArmErrs [3]error
}

// Solve runs the combined UFPP approximation. The returned task set is
// always a feasible UFPP solution for the instance.
func Solve(in *model.Instance, p Params) (*Result, error) {
	return SolveCtx(context.Background(), in, p)
}

// SolveCtx is Solve under a context. Each arm runs under its own panic
// containment and degrades independently: a failed or cancelled arm is
// recorded in ArmErrs and the best of the surviving arms is returned. A
// typed error is returned only when no arm produced a selection.
func SolveCtx(ctx context.Context, in *model.Instance, p Params) (res *Result, err error) {
	defer saperr.Contain(&err)
	ctx, endSolve := obs.StartSpan(ctx, "ufppfull/solve")
	defer endSolve()
	p = p.withDefaults()
	if err := saperr.FromContext(ctx); err != nil {
		return nil, err
	}
	small, medium, large := core.Partition(in, p.DeltaDen)
	res = &Result{}

	// Each arm is contained on its own: a failed or cancelled arm lands in
	// ArmErrs and never kills its siblings.
	outs := par.Run(ctx, len(armSpanNames), p.Workers, func(ctx context.Context, i int) ([]model.Task, error) {
		ctx, endArm := obs.StartSpanTrack(ctx, armSpanNames[i])
		defer endArm()
		faultinject.Fire(ctx, armSpanNames[i])
		switch Arm(i) {
		case ArmSmall:
			return solveSmall(ctx, &model.Instance{Capacity: in.Capacity, Tasks: small}, p)
		case ArmMedium:
			return solveMedium(ctx, &model.Instance{Capacity: in.Capacity, Tasks: medium}, p)
		default:
			sol, err := largesap.SolveCtx(ctx, &model.Instance{Capacity: in.Capacity, Tasks: large}, largesap.Options{})
			if err != nil {
				if sol != nil && (errors.Is(err, largesap.ErrBudget) || saperr.IsCancelled(err)) {
					return sol.Tasks(), nil // feasible incumbent stands
				}
				return nil, err
			}
			return sol.Tasks(), nil
		}
	})
	completed := 0
	for i, out := range outs {
		switch {
		case !out.Ran:
			res.ArmErrs[i] = out.Err
		case out.Err != nil:
			res.ArmErrs[i] = fmt.Errorf("ufppfull: %s arm: %w", Arm(i), out.Err)
		default:
			completed++
			continue
		}
		res.Degraded = true
	}
	if completed == 0 {
		return nil, fmt.Errorf("ufppfull: no arm completed: %w", res.ArmErrs[ArmSmall])
	}
	res.SmallWeight = model.WeightOf(outs[ArmSmall].Val)
	res.MediumWeight = model.WeightOf(outs[ArmMedium].Val)
	res.LargeWeight = model.WeightOf(outs[ArmLarge].Val)

	// Best-of over completed arms in fixed order (small < medium < large
	// on ties).
	first := true
	for i, out := range outs {
		if out.Err != nil {
			continue
		}
		if first || model.WeightOf(out.Val) > model.WeightOf(res.Tasks) {
			res.Tasks, res.Winner = out.Val, Arm(i)
			first = false
		}
	}
	sort.Slice(res.Tasks, func(i, j int) bool { return res.Tasks[i].ID < res.Tasks[j].ID })
	return res, nil
}

// solveSmall handles δ-small tasks: per bottleneck class J_t a ½B-packable
// solution; residues mod 2 are combined and the heavier kept. Feasibility
// of a residue union: class t's load on any of its edges is ≤ 2^{t-1};
// classes below t in the same residue contribute ≤ Σ_{i≥1} 2^{t-2i-1}
// < 2^{t-1}, and every edge used by class t has capacity ≥ 2^t.
func solveSmall(ctx context.Context, in *model.Instance, p Params) ([]model.Task, error) {
	ctx, a, owned := scratch.Attach(ctx)
	defer scratch.Put(owned)
	plan := classes.New(a, in, 1)
	// Classes below t = 1 have no room in a half-packable strip.
	first := 0
	for first < plan.Len() && plan.K(first) < 1 {
		first++
	}
	sels := par.Run(ctx, plan.Len()-first, p.Workers, func(ctx context.Context, i int) ([]model.Task, error) {
		a, owned := scratch.Acquire(ctx)
		defer scratch.Put(owned)
		t := plan.K(first + i)
		classIn := &model.Instance{Capacity: classes.Clip(a, in.Capacity, t, 1), Tasks: plan.Tasks(first + i)}
		sel, _, err := ufpp.HalfPackableCtx(ctx, classIn, 1<<uint(t), p.Round)
		return sel, err
	})
	// The arm fails on the first class error in index order.
	for _, sel := range sels {
		if sel.Err != nil {
			return nil, sel.Err
		}
	}
	var best []model.Task
	var bestW int64 = -1
	for r := 0; r < 2; r++ {
		var union []model.Task
		for i, sel := range sels {
			if plan.K(first+i)%2 == r {
				union = append(union, sel.Val...)
			}
		}
		if w := model.WeightOf(union); w > bestW {
			best, bestW = union, w
		}
	}
	return best, nil
}

// solveMedium handles the medium tasks with the UFPP analogue of Algorithm
// AlmostUniform: classes J^{k,ℓ}, per class an exact (budgeted) UFPP solve
// on capacities min(c_e, 2^{k+ℓ})/2, residues mod ℓ+1 combined, best kept.
func solveMedium(ctx context.Context, in *model.Instance, p Params) ([]model.Task, error) {
	if len(in.Tasks) == 0 {
		return nil, nil
	}
	ell := int(math.Ceil(2 / p.Eps))
	if ell < 1 {
		ell = 1
	}
	ctx, a, owned := scratch.Attach(ctx)
	defer scratch.Put(owned)
	plan := classes.New(a, in, ell)
	sels := par.Run(ctx, plan.Len(), p.Workers, func(ctx context.Context, i int) ([]model.Task, error) {
		a, owned := scratch.Acquire(ctx)
		defer scratch.Put(owned)
		// The clip is a fresh copy, so halving it in place leaves the
		// instance and the sibling classes alone.
		caps := classes.Clip(a, in.Capacity, plan.K(i), ell)
		for e := range caps {
			caps[e] = max(caps[e]/2, 1)
		}
		classIn := &model.Instance{Capacity: caps, Tasks: plan.Tasks(i)}
		sel, err := exact.SolveUFPPCtx(ctx, classIn, p.Exact)
		if errors.Is(err, exact.ErrBudget) || (saperr.IsCancelled(err) && sel != nil) {
			err = nil // incumbent is feasible; guarantee degrades gracefully
		}
		return sel, err
	})
	// The arm fails on the first class error in index order.
	for _, sel := range sels {
		if sel.Err != nil {
			return nil, sel.Err
		}
	}
	period := ell + 1
	var best []model.Task
	var bestW int64 = -1
	// One ID-dedup map for all residues, cleared between them, instead of a
	// fresh allocation per residue.
	seen := make(map[int]bool, len(in.Tasks))
	for r := 0; r < period; r++ {
		clear(seen)
		var union []model.Task
		for i, sel := range sels {
			if ((plan.K(i)-r)%period+period)%period != 0 {
				continue
			}
			for _, t := range sel.Val {
				if !seen[t.ID] {
					seen[t.ID] = true
					union = append(union, t)
				}
			}
		}
		// Defensive: the union is feasible by the geometric-sum argument;
		// verify and repair in the unlikely event the budgeted per-class
		// incumbents broke an assumption.
		union = repairToFeasible(in, union)
		if w := model.WeightOf(union); w > bestW {
			best, bestW = union, w
		}
	}
	return best, nil
}

// repairToFeasible drops lowest-density tasks until the load fits (no-op
// when the union is already feasible).
func repairToFeasible(in *model.Instance, tasks []model.Task) []model.Task {
	kept := append([]model.Task(nil), tasks...)
	sort.Slice(kept, func(i, j int) bool {
		li := kept[i].Weight * kept[j].Demand
		lj := kept[j].Weight * kept[i].Demand
		if li != lj {
			return li < lj
		}
		return kept[i].ID < kept[j].ID
	})
	load := in.Load(kept)
	for {
		over := -1
		for e, l := range load {
			if l > in.Capacity[e] {
				over = e
				break
			}
		}
		if over < 0 {
			break
		}
		victim := -1
		for i, t := range kept {
			if t.Uses(over) {
				victim = i
				break
			}
		}
		if victim < 0 {
			break
		}
		t := kept[victim]
		for e := t.Start; e < t.End; e++ {
			load[e] -= t.Demand
		}
		kept = append(kept[:victim], kept[victim+1:]...)
	}
	return kept
}
