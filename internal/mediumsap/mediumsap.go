// Package mediumsap implements Section 5 of the paper: the (2+ε)-
// approximation for medium (δ-large and (1−2β)-small) SAP instances.
//
// Algorithm AlmostUniform partitions the tasks into "almost uniform"
// classes J^{k,ℓ} = { j : 2^k ≤ b(j) < 2^{k+ℓ} }, obtains a β-elevated
// 2-approximate solution for every class via Elevator — an optimal solution
// (Lemma 13) split into two β-elevated halves (Lemma 14), keeping the
// heavier (Lemma 15) — and stacks the classes of every residue
// r mod (ℓ+q), q = ⌈log2(1/β)⌉, which Lemma 8 shows is feasible. The best
// residue is a (1+ε)·2-approximation (Lemmas 9 and 10).
//
// Where the paper's Lemma 13 uses a dynamic program over edges whose states
// are the O(n^{L²}) proper (set, height) pairs, this library computes the
// per-class optimum with the exact branch-and-bound of internal/exact,
// which is exact by the same Observation 11 the DP rests on and is fast on
// δ-large classes precisely because at most 2^ℓ/δ tasks fit on an edge
// (Lemma 12 (i)); DESIGN.md records the substitution.
package mediumsap

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"sapalloc/internal/classes"
	"sapalloc/internal/exact"
	"sapalloc/internal/faultinject"
	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/par"
	"sapalloc/internal/saperr"
	"sapalloc/internal/scratch"
)

// Params configures Algorithm AlmostUniform.
type Params struct {
	// Eps is the ε of Theorem 2; it determines ℓ = ⌈q/ε⌉. Must be > 0.
	Eps float64
	// BetaNum/BetaDen is β ∈ (0, ½). Medium tasks must be (1−2β)-small for
	// the elevation of Lemma 14 to be feasible. The paper's Theorem 4 uses
	// β = ¼.
	BetaNum, BetaDen int64
	// Exact configures the per-class exact solver.
	Exact exact.Options
	// Workers bounds the number of classes solved concurrently
	// (0 ⇒ GOMAXPROCS). Classes are independent, so the result is
	// identical to the sequential run.
	Workers int
}

func (p Params) withDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = 0.5
	}
	if p.BetaNum == 0 || p.BetaDen == 0 {
		p.BetaNum, p.BetaDen = 1, 4
	}
	if p.Exact.MaxNodes == 0 {
		// Large classes can make the exact per-class search expensive; the
		// budget caps it, and Elevator falls back to the feasible incumbent
		// when the budget is exhausted (see Elevator).
		p.Exact.MaxNodes = 500_000
	}
	return p
}

// q returns ⌈log2(BetaDen/BetaNum)⌉ = ⌈log2(1/β)⌉.
func (p Params) q() int {
	q := 0
	// Smallest q with 2^q ≥ den/num, i.e. num·2^q ≥ den.
	v := p.BetaNum
	for v < p.BetaDen {
		v *= 2
		q++
	}
	return q
}

// ell returns ℓ = ⌈q/ε⌉ (at least 1).
func (p Params) ell() int {
	l := int(math.Ceil(float64(p.q()) / p.Eps))
	if l < 1 {
		l = 1
	}
	return l
}

// Result carries the returned solution plus framework diagnostics.
type Result struct {
	Solution *model.Solution
	// Classes maps each k ∈ K to the weight of its elevated class solution.
	Classes map[int]int64
	// Residue is the winning r*, Ell and Q the framework parameters.
	Residue, Ell, Q int
	// Degraded is set when at least one class fell back from the proven
	// per-class optimum to a best-effort solution — because the exact
	// search exhausted its node budget or its deadline slice, because the
	// class held more than exact.MaxTasks tasks and only its heaviest were
	// solved, or because a class failed entirely and was dropped (see
	// ClassErrs). The stacked result remains feasible either way.
	Degraded bool
	// ClassErrs collects the typed errors of classes that were dropped.
	ClassErrs []error
}

// Solve runs Algorithm AlmostUniform on the instance. Tasks are expected to
// be (1−2β)-small (use core.Partition to select them); δ-largeness affects
// only running time. The returned solution is feasible for the instance.
func Solve(in *model.Instance, p Params) (*Result, error) {
	return SolveCtx(context.Background(), in, p)
}

// SolveCtx is Solve under a context. Per-class exact searches honour
// cancellation and degrade to their feasible incumbents (exact →
// approximate); a class that fails outright is dropped and recorded in
// ClassErrs. A typed error is returned only when no class completed.
//
// The class task lists, the class sub-instances and the elevated class
// solutions live in the context's arena (a pooled one when it carries
// none); only the winning residue's stack is built as a fresh Solution.
func SolveCtx(ctx context.Context, in *model.Instance, p Params) (*Result, error) {
	p = p.withDefaults()
	if err := saperr.FromContext(ctx); err != nil {
		return nil, err
	}
	if 2*p.BetaNum >= p.BetaDen {
		return nil, fmt.Errorf("mediumsap: β = %d/%d is not in (0, 1/2)", p.BetaNum, p.BetaDen)
	}
	q := p.q()
	ell := p.ell()
	res := &Result{Classes: map[int]int64{}, Ell: ell, Q: q}
	if len(in.Tasks) == 0 {
		res.Solution = &model.Solution{}
		return res, nil
	}
	ctx, a, owned := scratch.Attach(ctx)
	defer scratch.Put(owned)

	// Every task joins its ℓ classes: k with 2^k ≤ b(j) < 2^{k+ℓ}. k may be
	// negative when b < 2^{ℓ−1}; lambda and the clip in search handle that.
	plan := classes.New(a, in, ell)
	// Classes with the same tasks are the same search whatever their k:
	// class k holds only tasks with b(j) < 2^{k+ℓ}, so its clip leaves every
	// task's ceiling at b(j), and the exact search reads capacity only
	// through those ceilings. One search per run of identical classes
	// (classes.Plan groups them) answers the whole run.
	//
	// Run r is the classes leaders[r] … leaders[r+1]−1.
	leaders := a.Ints(plan.Len() + 1)[:0]
	for i := range plan.Len() {
		if plan.Lead(i) == i {
			leaders = append(leaders, i)
		}
	}
	leaders = append(leaders, plan.Len())
	// A run's search writes its optimum into its leader's range of raw;
	// every class of the run then writes its elevated half, at most one
	// placement per task, into its own range of classItems, and the half's
	// length into classLen.
	raw := a.Placements(plan.Size())
	classItems := a.Placements(plan.Size())
	classLen := a.IntsZero(plan.Len())
	items := func(i int) []model.Placement {
		lo, _ := plan.Range(i)
		return classItems[lo : lo+classLen[i]]
	}

	// Per run: one search, then the elevated 2-approximate solutions of its
	// classes. Runs are independent sub-instances and are solved
	// concurrently; runs that completed before a cancellation survive into
	// the stack. Workers only read the class lists and write their runs'
	// ranges.
	outs := par.Run(ctx, len(leaders)-1, p.Workers, func(ctx context.Context, r int) (degraded bool, err error) {
		lead, end := leaders[r], leaders[r+1]
		lo, hi := plan.Range(lead)
		ctx, endClass := obs.StartSpanTrack(ctx, "mediumsap/class")
		defer endClass()
		faultinject.Fire(ctx, "mediumsap/class")
		opt, degraded, err := search(ctx, in.Capacity, plan.Tasks(lead), plan.K(lead), ell, p, raw[lo:lo:hi])
		if err != nil {
			return false, err
		}
		obs.MediumClassesShared.Add(int64(end - lead - 1))
		if degraded {
			obs.ExactFallbacks.Add(int64(end - lead))
		}
		// Each class lifts its own half by its own ⌈β·2^k⌉, so the raw
		// optimum stays as the search left it until the last class of the
		// run has taken its half.
		for i := lead; i < end; i++ {
			lo, hi := plan.Range(i)
			classLen[i] = len(heavierHalf(opt, plan.K(i), p, classItems[lo:lo:hi]))
		}
		return degraded, nil
	})

	// Residue classes K(r) = K ∩ { r + i(ℓ+q) }. Classes of one residue
	// are ℓ+q apart and so share no task: a residue's stack weighs the sum
	// of its class weights, and only the heaviest residue is built. Every
	// class takes its run's outcome.
	period := ell + q
	residueWeight := a.Int64sZero(period)
	completed := 0
	for r, out := range outs {
		for i := leaders[r]; i < leaders[r+1]; i++ {
			k := plan.K(i)
			switch {
			case !out.Ran:
				res.Degraded = true
				res.ClassErrs = append(res.ClassErrs, out.Err)
				classLen[i] = 0
			case out.Err != nil:
				res.Degraded = true
				res.ClassErrs = append(res.ClassErrs, fmt.Errorf("mediumsap: class k=%d: %w", k, out.Err))
				classLen[i] = 0
			default:
				completed++
				if out.Val {
					res.Degraded = true
				}
			}
			w := (&model.Solution{Items: items(i)}).Weight()
			res.Classes[k] = w
			residueWeight[residue(k, period)] += w
		}
	}
	if completed == 0 {
		return nil, fmt.Errorf("mediumsap: no class completed: %w", res.ClassErrs[0])
	}
	for r := 1; r < period; r++ {
		if residueWeight[r] > residueWeight[res.Residue] {
			res.Residue = r
		}
	}
	placed := 0
	for i := range plan.Len() {
		if residue(plan.K(i), period) == res.Residue {
			placed += classLen[i]
		}
	}
	best := &model.Solution{}
	if placed > 0 {
		best.Items = make([]model.Placement, 0, placed)
	}
	for i := range plan.Len() {
		if residue(plan.K(i), period) == res.Residue {
			best.Items = append(best.Items, items(i)...)
		}
	}
	res.Solution = best.SortByID()
	return res, nil
}

// residue returns k mod period in [0, period), for negative k as well.
func residue(k, period int) int {
	return ((k % period) + period) % period
}

// Elevator computes a β-elevated 2-approximate SAP solution for the class
// J^{k,ℓ} (Lemma 15): it clips the capacities to min(c_e, 2^{k+ℓ})
// (Observation 7 makes this lossless), solves the class exactly, partitions
// the optimum into two β-elevated solutions (Lemma 14) and returns the
// heavier.
func Elevator(in *model.Instance, tasks []model.Task, k, ell int, p Params) (*model.Solution, error) {
	sol, _, err := ElevatorCtx(context.Background(), in, tasks, k, ell, p)
	return sol, err
}

// ElevatorCtx is Elevator under a context. degraded reports that the class
// solution is the exact search's feasible incumbent rather than the proven
// optimum — the node budget or the deadline slice ran out, or the class
// held more than exact.MaxTasks tasks and only its MaxTasks heaviest were
// searched. This is the pipeline's exact → approximate fallback: the
// incumbent is seeded with a greedy packing, so a cancelled class still
// contributes a solution.
func ElevatorCtx(ctx context.Context, in *model.Instance, tasks []model.Task, k, ell int, p Params) (sol *model.Solution, degraded bool, err error) {
	p = p.withDefaults()
	opt, degraded, err := search(ctx, in.Capacity, tasks, k, ell, p, nil)
	if err != nil {
		return nil, false, err
	}
	if degraded {
		obs.ExactFallbacks.Inc()
	}
	items := heavierHalf(opt, k, p, opt[:0])
	if len(items) == 0 {
		items = nil // an empty solution has nil Items, like every other solver's
	}
	return &model.Solution{Items: items}, degraded, nil
}

// search solves the class exactly (Lemma 13) on the capacity profile of
// the whole instance clipped to min(c_e, 2^{k+ℓ}) (Observation 7), appends
// the optimum to dst in task order and returns the appended placements.
// degraded reports that they are a truncated search's incumbent, or the
// optimum of only the class's exact.MaxTasks heaviest tasks. The class
// sub-instance lives in the context's arena.
func search(ctx context.Context, capacity []int64, tasks []model.Task, k, ell int, p Params, dst []model.Placement) (opt []model.Placement, degraded bool, err error) {
	a, owned := scratch.Acquire(ctx)
	defer scratch.Put(owned)
	// The exact search takes at most MaxTasks tasks, so a larger class is
	// cut to its MaxTasks heaviest: a feasible best effort, degraded like a
	// truncated search.
	degraded = len(tasks) > exact.MaxTasks
	if degraded {
		tasks = heaviest(tasks, exact.MaxTasks, a)
	}
	classIn := model.Instance{Capacity: classes.Clip(a, capacity, k, ell), Tasks: tasks}
	exactCtx, endExact := obs.StartSpan(ctx, "mediumsap/exact")
	opt, err = exact.AppendSAPCtx(exactCtx, dst, &classIn, p.Exact)
	endExact()
	if errors.Is(err, exact.ErrBudget) || saperr.IsCancelled(err) {
		// The class was too large to prove optimality within the node
		// budget (or its time slice); the incumbent in opt, which a search
		// cut short always leaves, is still feasible, so
		// the pipeline degrades gracefully from the proven 2-approximation
		// to a best-effort solution (the experiment harness reports
		// measured ratios either way). This mirrors the paper's reliance
		// on a DP whose exponent L² makes it polynomial only for constant
		// δ and ℓ.
		degraded = true
		err = nil
	}
	if err != nil {
		return nil, false, err
	}
	return opt[len(dst):], degraded, nil
}

// heavierHalf appends to dst the heavier of Lemma 14's two β-elevated
// halves of the class optimum opt, as in ElevatePartition (the lifted half
// on ties, lifted by ⌈β·2^k⌉), in opt's order. opt is only read, so the
// classes of a run can each take their half of one optimum; dst may also
// be opt[:0], which compacts the half in place.
func heavierHalf(opt []model.Placement, k int, p Params, dst []model.Placement) []model.Placement {
	num, den := lambda(k, p.BetaNum, p.BetaDen)
	var liftedW, keptW int64
	for _, pl := range opt {
		if lifts(pl, num, den) {
			liftedW += pl.Task.Weight
		} else {
			keptW += pl.Task.Weight
		}
	}
	lift := liftedW >= keptW
	ceilLam := (num + den - 1) / den
	for _, pl := range opt {
		if lifts(pl, num, den) == lift {
			if lift {
				pl.Height += ceilLam
			}
			dst = append(dst, pl)
		}
	}
	return dst
}

// heaviest returns the k heaviest of the tasks (ties to the lower ID) in
// their given order, in arena memory.
func heaviest(tasks []model.Task, k int, a *scratch.Arena) []model.Task {
	order := a.Ints(len(tasks))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		ti, tj := tasks[i], tasks[j]
		if ti.Weight != tj.Weight {
			return cmp.Compare(tj.Weight, ti.Weight)
		}
		return cmp.Compare(ti.ID, tj.ID)
	})
	keep := order[:k]
	slices.Sort(keep)
	out := a.Tasks(k)
	for i, j := range keep {
		out[i] = tasks[j]
	}
	return out
}

// ElevatePartition splits a feasible class solution into two β-elevated
// solutions per Lemma 14 (Fig. 6 of the paper): tasks with h(j) < β·2^k are
// lifted by ⌈β·2^k⌉ (feasible because the tasks are (1−2β)-small and every
// class edge has capacity ≥ 2^k by Observation 6); the rest keep their
// heights. Both returned solutions are β-elevated with respect to k.
func ElevatePartition(sol *model.Solution, k int, betaNum, betaDen int64) (lifted, kept *model.Solution) {
	lifted = &model.Solution{}
	kept = &model.Solution{}
	num, den := lambda(k, betaNum, betaDen)
	ceilLam := (num + den - 1) / den
	for _, pl := range sol.Items {
		if lifts(pl, num, den) {
			pl.Height += ceilLam
			lifted.Items = append(lifted.Items, pl)
		} else {
			kept.Items = append(kept.Items, pl)
		}
	}
	return lifted, kept
}

// lifts reports whether Lemma 14 lifts the placement: h(j) < λ = num/den.
func lifts(pl model.Placement, num, den int64) bool { return pl.Height*den < num }

// lambda returns λ = β·2^k as the exact rational num/den, valid for
// negative k as well.
func lambda(k int, betaNum, betaDen int64) (num, den int64) {
	if k >= 0 {
		return betaNum << uint(k), betaDen
	}
	return betaNum, betaDen << uint(-k)
}

// IsElevated reports whether every placement satisfies h(j) ≥ β·2^k.
func IsElevated(sol *model.Solution, k int, betaNum, betaDen int64) bool {
	num, den := lambda(k, betaNum, betaDen)
	for _, pl := range sol.Items {
		if pl.Height*den < num {
			return false
		}
	}
	return true
}
