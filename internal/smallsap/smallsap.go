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
	"math/bits"
	"sort"

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
func SolveCtx(ctx context.Context, in *model.Instance, p Params) (*Result, error) {
	if err := saperr.FromContext(ctx); err != nil {
		return nil, err
	}
	res := &Result{Solution: &model.Solution{}}
	classes := map[int][]model.Task{}
	bot := in.BottleneckFunc()
	for _, t := range in.Tasks {
		b := bot(t)
		cls := floorLog2(b)
		classes[cls] = append(classes[cls], t)
	}
	ts := make([]int, 0, len(classes))
	for t := range classes {
		ts = append(ts, t)
	}
	sort.Ints(ts)
	type classOut struct {
		report ClassReport
		sol    *model.Solution
		skip   bool
		err    error
	}
	// ForEachCtx with caller-owned slots (not MapCtx) so the classes that
	// completed before a cancellation survive into the merge.
	outs := make([]classOut, len(ts))
	_ = par.ForEachCtx(ctx, len(ts), p.Workers, func(i int) error {
		t := ts[i]
		if t < 1 {
			outs[i] = classOut{skip: true} // strip height 2^{t-1} < 1: nothing fits
			return nil
		}
		report, sol, err := func() (report ClassReport, sol *model.Solution, err error) {
			defer saperr.Contain(&err)
			// Per-class worker: own arena (classes run concurrently and the
			// LP-rounding greedy below grabs its segment tree from it).
			a := scratch.Get()
			defer scratch.Put(a)
			classCtx, endClass := obs.StartSpanTrack(scratch.With(ctx, a), "smallsap/class")
			defer endClass()
			faultinject.Fire(classCtx, "smallsap/class")
			return solveClass(classCtx, in, classes[t], t, p)
		}()
		if err != nil {
			outs[i] = classOut{err: fmt.Errorf("smallsap: class t=%d: %w", t, err)}
			return nil
		}
		outs[i] = classOut{report: report, sol: sol}
		return nil
	})
	attempted, completed := 0, 0
	for _, out := range outs {
		if out.skip {
			continue
		}
		attempted++
		if out.err != nil {
			res.Degraded = true
			res.ClassErrs = append(res.ClassErrs, out.err)
			continue
		}
		if out.sol == nil {
			// Slot never ran: dispatch stopped by cancellation.
			res.Degraded = true
			res.ClassErrs = append(res.ClassErrs, saperr.Cancelled(ctx.Err()))
			continue
		}
		completed++
		res.Classes = append(res.Classes, out.report)
		res.LPBoundTotal += out.report.LPBound
		res.Solution.Merge(out.sol)
	}
	if attempted > 0 && completed == 0 {
		return nil, fmt.Errorf("smallsap: no class completed: %w", res.ClassErrs[0])
	}
	res.Solution.SortByID()
	return res, nil
}

// solveClass handles one bottleneck class J_t: ½B-packable UFPP solution,
// strip conversion, lift by 2^{t-1}.
func solveClass(ctx context.Context, in *model.Instance, tasks []model.Task, t int, p Params) (ClassReport, *model.Solution, error) {
	b := int64(1) << uint(t)
	classIn := in.Restrict(tasks).ClipCapacities(2 * b)
	report := ClassReport{T: t, Tasks: len(tasks)}

	var sel []model.Task
	switch p.Rounding {
	case LocalRatio:
		sel = ufpp.LocalRatioStrip(classIn, b)
	default:
		var lpOpt float64
		var err error
		sel, lpOpt, err = ufpp.HalfPackableCtx(ctx, classIn, b, p.Round)
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

	conv := dsa.ConvertToStripCtx(ctx, sel, b/2)
	report.RetainedWeight = conv.RetainedWeight
	sol := conv.Solution.Lift(b / 2)
	return report, sol, nil
}

// floorLog2 returns ⌊log2 v⌋ for v ≥ 1 (-1 for v ≤ 0).
func floorLog2(v int64) int {
	if v <= 0 {
		return -1
	}
	return bits.Len64(uint64(v)) - 1
}
