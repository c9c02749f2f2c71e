// Package core assembles the paper's main result: the polynomial-time
// (9+ε)-approximation algorithm for the storage allocation problem
// (Theorem 4).
//
// Following the proof of Theorem 4, the task set is partitioned with k = 2
// and β = ¼ into
//
//   - small:  δ-small tasks            → Strip-Pack        (4+ε, Theorem 1)
//   - medium: δ-large and ½-small      → AlmostUniform     (2+ε, Theorem 2)
//   - large:  ½-large                  → rectangle packing (3,   Theorem 3)
//
// and the heaviest of the three solutions is returned; by (the three-way
// extension of) Lemma 3 this is a (4+2+3+ε) = (9+ε)-approximation.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sapalloc/internal/exact"
	"sapalloc/internal/faultinject"
	"sapalloc/internal/largesap"
	"sapalloc/internal/mediumsap"
	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/par"
	"sapalloc/internal/saperr"
	"sapalloc/internal/scratch"
	"sapalloc/internal/shard"
	"sapalloc/internal/smallsap"
)

// Params configures the combined solver.
type Params struct {
	// Eps is the ε of Theorem 4 (defaults to 0.5). It is forwarded to the
	// medium-task framework; the LP rounding of the small arm always
	// produces feasible solutions, with ε affecting only the analysis.
	Eps float64
	// DeltaDen sets δ = 1/DeltaDen, the small/medium threshold (default
	// 16). The paper picks δ as a function of ε (δ ≤ ε/100 suffices for
	// the formal constant); the default trades the constant in the analysis
	// for a far better measured ratio, and the experiment harness sweeps
	// this knob (experiment E11).
	DeltaDen int64
	// Small configures the Strip-Pack arm.
	Small smallsap.Params
	// Large configures the rectangle-packing arm.
	Large largesap.Options
	// Exact configures the per-class exact searches of the medium arm.
	Exact exact.Options
	// Deadline bounds the wall clock of the whole solve (0 = none). When
	// it expires the arms are cancelled cooperatively and the best
	// solution among the arms that completed (or degraded to a feasible
	// incumbent) is returned; the attached SolveReport says which. When no
	// arm produced anything, Solve returns a typed error wrapping
	// saperr.ErrCancelled.
	Deadline time.Duration
	// Workers bounds the goroutines of the whole solve: the three arms run
	// concurrently (they are independent by Theorem 4), and the knob is
	// forwarded to the arms' own class-level Workers knobs when those are
	// unset. 0 ⇒ GOMAXPROCS; 1 recovers the fully sequential pipeline.
	// Output is deterministic for every value: arm results land in fixed
	// slots and the best-of tie-break stays small < medium < large.
	//
	// When the instance decomposes at zero-load cut edges (see Shard), the
	// same knob bounds the shard fan-out instead — parallelism moves to the
	// coarsest granularity available, and each shard solves its arms
	// sequentially. Output stays deterministic for every value.
	Workers int
	// Shard configures the zero-load-cut decomposition layer that runs
	// before the monolithic pipeline (internal/shard; docs/PERFORMANCE.md,
	// "Sharding"). The zero value enables sharding with per-shard
	// verification off; decomposition preserves feasibility and every
	// per-theorem factor, since OPT separates across the cuts.
	Shard shard.Options
}

func (p Params) withDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = 0.5
	}
	if p.DeltaDen <= 1 {
		p.DeltaDen = 16
	}
	if p.Small.Workers == 0 {
		p.Small.Workers = p.Workers
	}
	if p.Deadline > 0 && p.Exact.Deadline == 0 {
		// Slice the deadline for the medium arm's per-class exact
		// searches: each class may burn at most half the budget before
		// falling back to its incumbent (exact → approximate), leaving
		// room for elevation and residue stacking.
		p.Exact.Deadline = p.Deadline / 2
	}
	return p
}

// Arm identifies which sub-algorithm produced the returned solution.
type Arm int

const (
	ArmSmall Arm = iota
	ArmMedium
	ArmLarge
)

// armSpanNames are the fixed trace-span and fault-site names of the three
// arms, indexed by Arm (precomputed so a disabled tracer costs no string
// concatenation).
var armSpanNames = [3]string{"core/arm/small", "core/arm/medium", "core/arm/large"}

func (a Arm) String() string {
	switch a {
	case ArmSmall:
		return "small/strip-pack"
	case ArmMedium:
		return "medium/almost-uniform"
	default:
		return "large/rectangle-packing"
	}
}

// Result reports the combined solution and per-arm diagnostics.
type Result struct {
	Solution *model.Solution
	Winner   Arm
	// Per-arm weights (the solution is the max of the three).
	SmallWeight, MediumWeight, LargeWeight int64
	// Partition sizes.
	NumSmall, NumMedium, NumLarge int
	// SmallDetail and MediumDetail expose the sub-results for harness use.
	// Either may be nil when its arm failed or was skipped (see Report).
	SmallDetail  *smallsap.Result
	MediumDetail *mediumsap.Result
	// Report records per-arm outcomes and timings; consult it whenever a
	// deadline or cancellation may have degraded the solve.
	Report *SolveReport
	// Shards reports the decomposition when the solve took the sharded
	// path; nil for monolithic solves (no zero-load cut edge, or sharding
	// disabled). For sharded solves the per-arm fields above are sums over
	// the completed shards, Winner is the heaviest aggregated arm (each
	// shard keeps its own best arm, so Solution.Weight() can exceed the
	// winner's summed weight), and SmallDetail/MediumDetail are nil.
	Shards *shard.Report
}

// Partition splits the tasks per Theorem 4 (k = 2, β = ¼): δ-small tasks,
// medium tasks (δ-large and ½-small), and ½-large tasks, with δ =
// 1/deltaDen. Each family keeps the task order; an empty family is nil.
func Partition(in *model.Instance, deltaDen int64) (small, medium, large []model.Task) {
	a := scratch.Get()
	defer scratch.Put(a)
	return partitionInto(in, deltaDen, a, make([]model.Task, len(in.Tasks)))
}

// partitionInto is Partition writing the three families into out, which must
// hold len(in.Tasks) tasks: small, then medium, then large. The per-task
// families are kept in a.
func partitionInto(in *model.Instance, deltaDen int64, a *scratch.Arena, out []model.Task) (small, medium, large []model.Task) {
	if deltaDen < 1 {
		deltaDen = 1 // δ ≥ 1 keeps the division below defined; withDefaults never passes less
	}
	family := a.Ints(len(in.Tasks))
	var size [3]int
	bot := in.BottleneckLookup()
	for i, t := range in.Tasks {
		b := bot.Of(t)
		switch {
		// d ≤ δ·b ⟺ d·deltaDen ≤ b ⟺ d ≤ ⌊b/deltaDen⌋ (all positive
		// integers). The division form cannot overflow: the product form
		// wrapped for Demand·DeltaDen ≥ 2^63 (demands up to 2^40 pass
		// Validate, so DeltaDen ≥ 2^23 silently misclassified large tasks
		// as small).
		case t.Demand <= b/deltaDen:
			family[i] = 0
		case 2*t.Demand <= b: // δ·b < d ≤ b/2
			family[i] = 1
		default: // d > b/2
			family[i] = 2
		}
		size[family[i]]++
	}
	var fams [3][]model.Task
	off := 0
	for f, n := range size {
		if n > 0 {
			fams[f] = out[off : off : off+n]
		}
		off += n
	}
	for i, t := range in.Tasks {
		fams[family[i]] = append(fams[family[i]], t)
	}
	return fams[0], fams[1], fams[2]
}

// Solve runs the combined (9+ε)-approximation of Theorem 4 and returns the
// best arm's solution with diagnostics. The returned solution is always
// feasible for the instance.
//
// The three arms are independent (they solve disjoint task families on the
// shared, read-only capacity profile) and run concurrently under the
// Workers knob. Each arm writes into its own slot and the best-of
// comparison runs after the join in fixed arm order, so the Result —
// winner, weights, task sets, heights — is identical for every Workers
// value, including the sequential Workers = 1.
func Solve(in *model.Instance, p Params) (*Result, error) {
	return SolveCtx(context.Background(), in, p)
}

// SolveCtx is Solve under a context and optional Params.Deadline.
//
// Unless Params.Shard.Disable is set, the instance is first scanned for
// zero-load cut edges; when it decomposes, the independent sub-instances
// are solved concurrently and stitched (see Result.Shards and
// internal/shard), with each shard running the monolithic pipeline below.
//
// Within the monolithic pipeline the three arms are each wrapped in panic
// containment and classified independently:
// an arm that panics or errors degrades to ArmFailed instead of killing the
// solve, an arm whose exact searches ran out of budget or time contributes
// its feasible incumbent as ArmDegraded, and the best solution among the
// arms that produced one is returned together with a SolveReport. A typed
// error is returned only when no arm produced a solution — all failed, or
// the context died before any arm ran.
func SolveCtx(ctx context.Context, in *model.Instance, p Params) (res *Result, err error) {
	start := time.Now()
	ctx, endSolve := obs.StartSpan(ctx, "core/solve")
	obs.SolvesStarted.Inc()
	obs.TasksInput.Add(int64(len(in.Tasks)))
	// Outcome accounting runs after saperr.Contain (LIFO), so a contained
	// panic is already classified into err by the time this fires.
	defer func() {
		endSolve()
		obs.SolveNs.Record(int64(time.Since(start)))
		switch {
		case err != nil:
			obs.SolvesFailed.Inc()
		case res != nil && res.Report != nil && res.Report.Degraded:
			obs.SolvesDegraded.Inc()
		default:
			obs.SolvesCompleted.Inc()
		}
		if err == nil && res != nil && res.Solution != nil {
			obs.TasksAdmitted.Add(int64(res.Solution.Len()))
		}
	}()
	defer saperr.Contain(&err)
	p = p.withDefaults()
	if p.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Deadline)
		defer cancel()
	}
	if err := saperr.FromContext(ctx); err != nil {
		return nil, err
	}
	faultinject.Fire(ctx, "core/solve")
	if !p.Shard.Disable {
		// The decomposition layer: an instance with a zero-load cut edge
		// splits into fully independent sub-instances, solved concurrently
		// and stitched (internal/shard). Instances with no cut — the
		// common dense case — fall through to the monolithic pipeline
		// after one O(tasks+edges) scan.
		if plan := shard.Compute(ctx, in); plan.Decomposes() {
			return solveSharded(ctx, start, plan, p)
		}
	}
	return solveMono(ctx, start, in, p)
}

// solveMono is the monolithic three-arm pipeline: partition per Theorem 4,
// solve the arms concurrently, best-of. It runs under SolveCtx's prologue
// (containment, deadline, obs accounting) — either directly when the
// instance has no zero-load cut, or once per shard from solveSharded.
func solveMono(ctx context.Context, start time.Time, in *model.Instance, p Params) (res *Result, err error) {
	if err := saperr.FromContext(ctx); err != nil {
		return nil, err
	}
	// The partition and, when the arms run one after another, all three
	// arms work on the arena of ctx (a concurrent shard's or the caller's)
	// or on a pooled one.
	ctx, a, owned := scratch.Attach(ctx)
	defer scratch.Put(owned)
	_, endPartition := obs.StartSpan(ctx, "core/partition")
	small, medium, large := partitionInto(in, p.DeltaDen, a, a.Tasks(len(in.Tasks)))
	endPartition()
	res = &Result{NumSmall: len(small), NumMedium: len(medium), NumLarge: len(large)}
	report := &SolveReport{Deadline: p.Deadline}

	// An arm returns its solution, whether it degraded, and the small or
	// medium arm's detail.
	type armOut struct {
		sol      *model.Solution
		degraded bool
		small    *smallsap.Result
		medium   *mediumsap.Result
	}
	// Each arm is contained on its own, so a solver bug or corrupt
	// sub-instance degrades that arm instead of the solve, and gets its own
	// trace track: the arms may run concurrently, so sharing the parent's
	// track would interleave their spans. The arm's sub-instance shares the
	// capacity profile and takes its family from the partition.
	outs := par.Run(ctx, len(armSpanNames), p.Workers, func(ctx context.Context, i int) (armOut, error) {
		ctx, endArm := obs.StartSpanTrack(ctx, armSpanNames[i])
		defer endArm()
		faultinject.Fire(ctx, armSpanNames[i])
		switch Arm(i) {
		case ArmSmall:
			r, err := smallsap.SolveCtx(ctx, &model.Instance{Capacity: in.Capacity, Tasks: small}, p.Small)
			if err != nil {
				return armOut{}, err
			}
			return armOut{sol: r.Solution, degraded: r.Degraded, small: r}, nil
		case ArmMedium:
			r, err := mediumsap.SolveCtx(ctx, &model.Instance{Capacity: in.Capacity, Tasks: medium}, mediumsap.Params{
				Eps: p.Eps, BetaNum: 1, BetaDen: 4, Exact: p.Exact, Workers: p.Workers,
			})
			if err != nil {
				return armOut{}, err
			}
			return armOut{sol: r.Solution, degraded: r.Degraded, medium: r}, nil
		default:
			sol, err := largesap.SolveCtx(ctx, &model.Instance{Capacity: in.Capacity, Tasks: large}, p.Large)
			if err != nil {
				if sol != nil && (errors.Is(err, largesap.ErrBudget) || saperr.IsCancelled(err)) {
					return armOut{sol: sol, degraded: true}, nil // feasible incumbent stands
				}
				return armOut{}, err
			}
			return armOut{sol: sol}, nil
		}
	})

	for i, out := range outs {
		ar := &report.Arms[i]
		ar.Arm = Arm(i)
		ar.Elapsed = out.Elapsed
		if out.Ran {
			obs.ArmNs[i].Record(int64(out.Elapsed))
		}
		switch {
		case !out.Ran:
			ar.State = ArmSkipped
			ar.Err = out.Err
		case out.Err != nil:
			ar.State = ArmFailed
			ar.Err = fmt.Errorf("core: %s arm: %w", Arm(i), out.Err)
		case out.Val.degraded:
			ar.State = ArmDegraded
		default:
			ar.State = ArmCompleted
		}
		if out.Val.sol != nil {
			ar.Weight = out.Val.sol.Weight()
		}
		if ar.State != ArmCompleted {
			report.Degraded = true
		}
	}
	report.Elapsed = time.Since(start)
	res.Report = report

	res.SmallDetail = outs[ArmSmall].Val.small
	if res.SmallDetail != nil {
		res.SmallWeight = res.SmallDetail.Solution.Weight()
	}
	res.MediumDetail = outs[ArmMedium].Val.medium
	if res.MediumDetail != nil {
		res.MediumWeight = res.MediumDetail.Solution.Weight()
	}
	if sol := outs[ArmLarge].Val.sol; sol != nil {
		res.LargeWeight = sol.Weight()
	}

	// Best-of over the arms that produced a solution, in fixed arm order so
	// ties keep the deterministic small < medium < large preference.
	for i, out := range outs {
		sol := out.Val.sol
		if sol == nil {
			continue
		}
		if res.Solution == nil || sol.Weight() > res.Solution.Weight() {
			res.Solution, res.Winner = sol, Arm(i)
		}
	}
	if res.Solution == nil {
		// Degradation-to-nothing: surface the first arm's typed error.
		var first error
		for _, ar := range report.Arms {
			if ar.Err != nil {
				first = ar.Err
				break
			}
		}
		if first == nil {
			first = saperr.Cancelled(ctx.Err())
		}
		return nil, fmt.Errorf("core: no arm completed: %w", first)
	}
	return res, nil
}

// solveSharded scatters the decomposition plan: each shard runs the
// monolithic pipeline on its sub-instance (sequentially — the parallelism
// budget is spent at the shard level, the coarsest granularity available),
// and the per-shard solutions are stitched back into one solution with the
// per-arm diagnostics summed across shards.
//
// A shard that fails or is skipped under cancellation degrades the solve
// rather than killing it: the stitched solution covers the completed
// shards and the Report (and Result.Shards) says which were lost. An error
// is returned only when no shard completed, matching the monolithic "no
// arm completed" contract.
func solveSharded(ctx context.Context, start time.Time, plan *shard.Plan, p Params) (*Result, error) {
	inner := p
	inner.Workers = 1
	inner.Small.Workers = 1
	inner.Shard.Disable = true // shards have no interior cut by construction
	inner.Deadline = 0         // SolveCtx's prologue already armed the deadline on ctx
	subResults := make([]*Result, plan.Len())
	sol, srep, err := plan.Scatter(ctx, p.Workers, p.Shard, func(ctx context.Context, i int, sub *model.Instance) (*model.Solution, error) {
		r, err := solveMono(ctx, time.Now(), sub, inner)
		if err != nil {
			return nil, err
		}
		subResults[i] = r
		return r.Solution, nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: sharded solve: %w", err)
	}

	res := &Result{Solution: sol, Shards: srep}
	report := &SolveReport{Deadline: p.Deadline, Degraded: srep.Degraded()}
	for i := range report.Arms {
		report.Arms[i].Arm = Arm(i)
	}
	for _, r := range subResults {
		if r == nil {
			continue // failed or skipped shard; srep already counts it
		}
		res.NumSmall += r.NumSmall
		res.NumMedium += r.NumMedium
		res.NumLarge += r.NumLarge
		res.SmallWeight += r.SmallWeight
		res.MediumWeight += r.MediumWeight
		res.LargeWeight += r.LargeWeight
		if r.Report == nil {
			continue
		}
		if r.Report.Degraded {
			report.Degraded = true
		}
		for i := range report.Arms {
			ar, sub := &report.Arms[i], r.Report.Arms[i]
			ar.Weight += sub.Weight
			ar.Elapsed += sub.Elapsed
			if sub.State > ar.State {
				ar.State = sub.State // worst state across shards, per arm
			}
			if ar.Err == nil {
				ar.Err = sub.Err
			}
		}
	}
	// Winner is the heaviest aggregated arm, with the same deterministic
	// small < medium < large tie-break as the monolithic best-of. The
	// stitched solution itself is the per-shard best-of union, so its
	// weight is ≥ the winner's sum.
	weights := [3]int64{res.SmallWeight, res.MediumWeight, res.LargeWeight}
	for i := 1; i < len(weights); i++ {
		if weights[i] > weights[res.Winner] {
			res.Winner = Arm(i)
		}
	}
	for i := range report.Arms {
		if report.Arms[i].State != ArmCompleted {
			report.Degraded = true
		}
	}
	report.Elapsed = time.Since(start)
	res.Report = report
	return res, nil
}

// BestOf implements Lemma 3 generically: given per-family solutions with
// their claimed ratios r_i, the heaviest is a (Σ r_i)-approximation for the
// union. It returns the index of the heaviest solution.
func BestOf(solutions []*model.Solution) int {
	best := 0
	for i := 1; i < len(solutions); i++ {
		if solutions[i].Weight() > solutions[best].Weight() {
			best = i
		}
	}
	return best
}
