// Package smallsap implements Section 4 of the paper: Algorithm Strip-Pack,
// the (4+ε)-approximation for δ-small SAP instances.
//
// Tasks are partitioned into bottleneck classes
// J_t = { j : 2^t ≤ b(j) < 2^{t+1} }. For each class, capacities are clipped
// to 2^{t+1} (lossless by Observation 2), a ½B-packable UFPP solution with
// B = 2^t is computed — by LP rounding (Lemma 5, the default) or by the
// appendix's local-ratio Algorithm Strip — and converted into a SAP solution
// inside the strip [0, 2^{t-1}) (the library's Lemma 4 substitute,
// dsa.ConvertToStrip). Lifting the class-t strip by 2^{t-1} stacks the
// strips into disjoint vertical bands [2^{t-1}, 2^t), which yields a
// feasible solution for the whole instance (Fig. 4 of the paper).
package smallsap

import (
	"context"
	"fmt"

	"sapalloc/internal/classes"
	"sapalloc/internal/dsa"
	"sapalloc/internal/faultinject"
	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/par"
	"sapalloc/internal/saperr"
	"sapalloc/internal/scratch"
	"sapalloc/internal/ufpp"
)

// Rounding selects the per-class ½B-packable UFPP engine.
type Rounding int

const (
	// LPRound uses the LP-relaxation rounding of Lemma 5 ((4+ε) overall).
	LPRound Rounding = iota
	// LocalRatio uses the appendix's Algorithm Strip ((5+ε) overall).
	LocalRatio
)

func (r Rounding) String() string {
	if r == LocalRatio {
		return "local-ratio"
	}
	return "lp-round"
}

// Params configures Strip-Pack.
type Params struct {
	Rounding Rounding
	// Round tunes the LP rounding (ignored for LocalRatio).
	Round ufpp.RoundOptions
	// Workers bounds the number of bottleneck classes solved concurrently
	// (0 ⇒ GOMAXPROCS). Classes occupy disjoint vertical bands, so the
	// merged result is identical to the sequential run.
	Workers int
}

// ClassReport records per-class diagnostics for the experiment harness.
type ClassReport struct {
	T              int     // bottleneck class exponent
	Tasks          int     // |J_t|
	UFPPWeight     int64   // weight of the ½B-packable UFPP solution
	LPBound        float64 // LP optimum of the class (0 for LocalRatio)
	RetainedWeight int64   // weight surviving the strip conversion
}

// Result is the Strip-Pack outcome.
type Result struct {
	Solution *model.Solution
	Classes  []ClassReport
	// LPBoundTotal sums the per-class LP optima; it upper-bounds the sum of
	// the class-wise SAP optima and hence OPT_SAP(J) when every task is
	// δ-small (Theorem 1's accounting).
	LPBoundTotal float64
	// Degraded is set when one or more classes were skipped because of
	// cancellation or a contained per-class failure. The merged solution
	// stays feasible — classes occupy disjoint vertical bands — but the
	// (4+ε) guarantee only covers the classes that completed.
	Degraded bool
	// ClassErrs collects the per-class typed errors behind Degraded.
	ClassErrs []error
}

// Solve runs Algorithm Strip-Pack on the instance. All tasks should be
// δ-small for the approximation guarantee; feasibility of the returned
// solution holds regardless. Tasks with b(j) ≤ 1 cannot be packed in a
// half-integral strip and are skipped (integer demands make such classes
// empty in practice).
func Solve(in *model.Instance, p Params) (*Result, error) {
	return SolveCtx(context.Background(), in, p)
}

// SolveCtx is Solve under a context. Classes are independent (disjoint
// vertical bands), so on cancellation the classes that completed are merged
// into a feasible partial result with Degraded set; a per-class panic or
// error is contained, recorded in ClassErrs, and degrades that class only.
// A typed error is returned only when no class completed.
//
// The class task lists, the class sub-instances and the class strips live
// in the context's arena (a pooled one when it carries none); only the
// merged solution and the reports are fresh memory.
func SolveCtx(ctx context.Context, in *model.Instance, p Params) (*Result, error) {
	if err := saperr.FromContext(ctx); err != nil {
		return nil, err
	}
	res := &Result{Solution: &model.Solution{}}
	if len(in.Tasks) == 0 {
		return res, nil
	}
	ctx, a, owned := scratch.Attach(ctx)
	defer scratch.Put(owned)
	plan := classes.New(a, in, 1)
	// A class's strip takes at most one placement per task, so class i
	// gets the placement range of its tasks.
	classItems := a.Placements(plan.Size())
	// Classes that completed before a cancellation survive into the merge.
	// Class workers only read the class lists and write their own
	// placement ranges of them.
	type classOut struct {
		report ClassReport
		items  []model.Placement
		skip   bool
	}
	outs := par.Run(ctx, plan.Len(), p.Workers, func(ctx context.Context, i int) (classOut, error) {
		t := plan.K(i)
		if t < 1 {
			return classOut{skip: true}, nil // strip height 2^{t-1} < 1: nothing fits
		}
		lo, hi := plan.Range(i)
		ctx, endClass := obs.StartSpanTrack(ctx, "smallsap/class")
		defer endClass()
		faultinject.Fire(ctx, "smallsap/class")
		report, items, err := solveClass(ctx, in.Capacity, plan.Tasks(i), t, p, classItems[lo:lo:hi])
		return classOut{report: report, items: items}, err
	})
	attempted, completed, placed := 0, 0, 0
	for i, out := range outs {
		if out.Val.skip {
			continue
		}
		attempted++
		switch {
		case !out.Ran:
			res.Degraded = true
			res.ClassErrs = append(res.ClassErrs, out.Err)
			continue
		case out.Err != nil:
			res.Degraded = true
			res.ClassErrs = append(res.ClassErrs, fmt.Errorf("smallsap: class t=%d: %w", plan.K(i), out.Err))
			continue
		}
		completed++
		res.Classes = append(res.Classes, out.Val.report)
		res.LPBoundTotal += out.Val.report.LPBound
		placed += len(out.Val.items)
	}
	if attempted > 0 && completed == 0 {
		return nil, fmt.Errorf("smallsap: no class completed: %w", res.ClassErrs[0])
	}
	if placed > 0 {
		res.Solution.Items = make([]model.Placement, 0, placed)
		for _, out := range outs {
			if out.Err == nil {
				res.Solution.Items = append(res.Solution.Items, out.Val.items...)
			}
		}
	}
	res.Solution.SortByID()
	return res, nil
}

// solveClass handles one bottleneck class J_t on the capacity profile of
// the whole instance: ½B-packable UFPP solution, strip conversion, lift by
// 2^{t-1}. It appends the lifted strip to dst and returns it; the class
// sub-instance and every intermediate live in the context's arena.
func solveClass(ctx context.Context, capacity []int64, tasks []model.Task, t int, p Params, dst []model.Placement) (ClassReport, []model.Placement, error) {
	a, owned := scratch.Acquire(ctx)
	defer scratch.Put(owned)
	b := int64(1) << uint(t)
	classIn := model.Instance{Capacity: classes.Clip(a, capacity, t, 1), Tasks: tasks}
	report := ClassReport{T: t, Tasks: len(tasks)}

	var sel []model.Task
	switch p.Rounding {
	case LocalRatio:
		sel = ufpp.LocalRatioStrip(&classIn, b)
	default:
		var lpOpt float64
		var err error
		sel, lpOpt, err = ufpp.HalfPackableIn(ctx, a, &classIn, b, p.Round)
		if err != nil {
			return report, nil, err
		}
		report.LPBound = lpOpt
	}
	report.UFPPWeight = model.WeightOf(sel)
	if obs.MetricsOn() && report.LPBound > 0 {
		pm := int64(1000 * float64(report.UFPPWeight) / report.LPBound)
		obs.RatioPermille.Record(pm)
	}

	items, _, retained := dsa.ConvertToStripIn(ctx, a, sel, b/2, dst)
	report.RetainedWeight = retained
	for i := range items {
		items[i].Height += b / 2
	}
	return report, items, nil
}
