// Package ufpp implements the unsplittable-flow-on-paths algorithms that the
// SAP pipeline of the paper builds on:
//
//   - an LP-rounding procedure that turns the optimal fractional solution of
//     relaxation (1), scaled by 1/4, into a ½B-packable integral solution for
//     δ-small instances whose capacities lie in [B, 2B) — the library's
//     realisation of the Chekuri–Mydlarz–Shepherd rounding the paper invokes
//     as Theorem 6;
//   - Algorithm Strip, the local-ratio (5+ε)-approximation from the paper's
//     appendix, implemented verbatim;
//   - a local-ratio baseline for UFPP with uniform capacities in the style
//     of Bar-Noy et al. (wide/narrow split), used as a comparison point in
//     the experiment harness.
package ufpp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"

	"sapalloc/internal/faultinject"
	"sapalloc/internal/intervals"
	"sapalloc/internal/lp"
	"sapalloc/internal/model"
	"sapalloc/internal/scratch"
)

// RoundOptions tunes the randomized LP rounding.
type RoundOptions struct {
	// Eps is the scale-down safety margin: tasks enter the sample with
	// probability (1−Eps)·x′_j. Must lie in [0,1).
	Eps float64
	// Trials is the number of independent rounding trials; the heaviest
	// repaired sample wins. Zero means 8.
	Trials int
	// Seed seeds the sampling: trial k draws from the PCG stream seeded
	// with (Seed, k), so every trial is a pure function of Seed and k.
	Seed int64
}

func (o RoundOptions) withDefaults() RoundOptions {
	if o.Trials == 0 {
		o.Trials = 8
	}
	if o.Eps < 0 || o.Eps >= 1 {
		o.Eps = 0.1
	}
	return o
}

// HalfPackable computes a (budget = B/2)-packable UFPP solution for an
// instance whose capacities lie in [B, 2B). It solves the LP relaxation,
// scales the fractional optimum by 1/4 (which makes the fractional load at
// most B/2 on every edge, exactly as in Section 4.1 of the paper), and
// rounds by randomized sampling with eviction repair; a deterministic
// LP-density greedy run competes with the samples. The returned tasks have
// load at most B/2 on every edge; the second return value is the LP optimum
// of the (unscaled) relaxation — an upper bound on OPT_UFPP(J) and hence on
// OPT_SAP(J).
func HalfPackable(in *model.Instance, b int64, opts RoundOptions) ([]model.Task, float64, error) {
	return HalfPackableCtx(context.Background(), in, b, opts)
}

// HalfPackableCtx is HalfPackable under a context: the LP solve and the
// rounding trials honour cancellation. A call cancelled during the trials
// returns the LP-density greedy candidate, which is already feasible and
// half-packable, with no error.
func HalfPackableCtx(ctx context.Context, in *model.Instance, b int64, opts RoundOptions) ([]model.Task, float64, error) {
	a, owned := scratch.Acquire(ctx)
	defer scratch.Put(owned)
	sel, lpOpt, err := HalfPackableIn(ctx, a, in, b, opts)
	if err != nil || len(sel) == 0 {
		return nil, lpOpt, err
	}
	return slices.Clone(sel), lpOpt, nil
}

// HalfPackableIn is HalfPackableCtx for a caller that keeps the selection
// in its arena: the LP, the greedy, the trials' buffers and the returned
// tasks all live in a until it is reset.
func HalfPackableIn(ctx context.Context, a *scratch.Arena, in *model.Instance, b int64, opts RoundOptions) ([]model.Task, float64, error) {
	opts = opts.withDefaults()
	if len(in.Tasks) == 0 {
		return nil, 0, nil
	}
	faultinject.Fire(ctx, "ufpp/halfpackable")
	x, lpOpt, err := lp.UFPPFractionalIn(ctx, a, in)
	if err != nil {
		return nil, 0, fmt.Errorf("half-packable rounding: %w", err)
	}
	for j := range x {
		x[j] /= 4 // x is this call's arena slice: scale it in place
	}
	budget := b / 2

	greedy := greedyByLPDensity(a, in, x, budget)
	best, bestW := greedy, model.WeightOf(greedy)
	r := newRounder(a, in, x, budget, opts)
	var kept []model.Task // the best trial so far
	for trial := 0; trial < opts.Trials; trial++ {
		if ctx.Err() != nil {
			return greedy, lpOpt, nil
		}
		sample := r.trial(trial)
		if w := model.WeightOf(sample); w > bestW {
			if kept == nil {
				kept = a.Tasks(len(in.Tasks))
			}
			best, bestW = kept[:copy(kept, sample)], w
		}
	}
	return best, lpOpt, nil
}

// rounder runs the randomized rounding trials of one HalfPackable call. The
// trials run one after another and share its buffers; a trial's repaired
// sample lives in them until the next trial starts.
type rounder struct {
	in     *model.Instance
	x      []float64 // the LP solution scaled by 1/4
	budget int64
	opts   RoundOptions
	src    rand.PCG
	rng    *rand.Rand   // draws from src
	sample []model.Task // the trial's sample, repaired in place
	load   []int64      // per-edge load of the sample
}

func newRounder(a *scratch.Arena, in *model.Instance, x []float64, budget int64, opts RoundOptions) *rounder {
	r := &rounder{in: in, x: x, budget: budget, opts: opts,
		sample: a.Tasks(len(in.Tasks))[:0], load: a.Int64s(in.Edges())}
	r.rng = rand.New(&r.src)
	return r
}

// trial samples each task with probability (1−Eps)·x′_j from the (Seed,
// trial) PCG stream and evicts until the sample fits the budget. The result
// aliases r's buffers.
func (r *rounder) trial(trial int) []model.Task {
	r.src.Seed(uint64(r.opts.Seed), uint64(trial))
	r.sample = r.sample[:0]
	for j, t := range r.in.Tasks {
		if r.rng.Float64() < (1-r.opts.Eps)*r.x[j] {
			r.sample = append(r.sample, t)
		}
	}
	return evictToBudget(r.sample, r.load, r.budget)
}

// candidate is one task the LP-density greedy may add.
type candidate struct {
	idx   int
	score float64
}

var candidateKind = scratch.NewKind(candidate{idx: -0x5A5A5A5B, score: math.NaN()})

// greedyByLPDensity adds tasks in decreasing w_j·x_j/d_j order while the
// load stays within the budget on every edge. The candidates, the load
// profile (a segment tree) and the returned tasks live in the arena.
func greedyByLPDensity(a *scratch.Arena, in *model.Instance, x []float64, budget int64) []model.Task {
	cands := candidateKind.Make(a, len(in.Tasks))[:0]
	for j, t := range in.Tasks {
		if x[j] <= 0 || t.Demand > budget {
			continue
		}
		cands = append(cands, candidate{idx: j, score: float64(t.Weight) * x[j] / float64(t.Demand)})
	}
	// The (score desc, ID asc) comparator is a total order, so the generic
	// unstable sort yields the same sequence sort.Slice did, without the
	// reflection allocation.
	slices.SortFunc(cands, func(p, q candidate) int {
		if p.score != q.score {
			return cmp.Compare(q.score, p.score)
		}
		return cmp.Compare(in.Tasks[p.idx].ID, in.Tasks[q.idx].ID)
	})
	tree := intervals.NewSegTreeIn(a, in.Edges())
	out := a.Tasks(len(cands))[:0]
	for _, c := range cands {
		t := in.Tasks[c.idx]
		if tree.Max(t.Start, t.End)+t.Demand <= budget {
			tree.Add(t.Start, t.End, t.Demand)
			out = append(out, t)
		}
	}
	return out
}

// evictToBudget sorts kept by ascending weight/demand density and evicts
// from the front (the least dense task on an overloaded edge first) until
// the load is within budget on every edge. It works in place: the result is
// a prefix-compacted kept, and load, which must span the path, is
// overwritten.
func evictToBudget(kept []model.Task, load []int64, budget int64) []model.Task {
	slices.SortFunc(kept, byDensity)
	clear(load)
	for _, t := range kept {
		for e := t.Start; e < t.End; e++ {
			load[e] += t.Demand
		}
	}
	for e := 0; e < len(load); {
		if load[e] <= budget {
			e++
			continue
		}
		// Evict the least dense task using edge e.
		victim := slices.IndexFunc(kept, func(t model.Task) bool { return t.Uses(e) })
		if victim < 0 {
			break // only for a negative budget: no eviction can help
		}
		t := kept[victim]
		for f := t.Start; f < t.End; f++ {
			load[f] -= t.Demand
		}
		kept = slices.Delete(kept, victim, victim+1)
	}
	return kept
}

// byDensity orders tasks by ascending Weight/Demand, then by ID. It
// compares the cross products Weight·Demand exactly in 128 bits: each
// factor may reach model.MaxMagnitude = 2^40, so a product overflows int64.
// Weights are non-negative and demands positive, so the unsigned products
// are the true ones.
func byDensity(p, q model.Task) int {
	phi, plo := bits.Mul64(uint64(p.Weight), uint64(q.Demand))
	qhi, qlo := bits.Mul64(uint64(q.Weight), uint64(p.Demand))
	if c := cmp.Compare(phi, qhi); c != 0 {
		return c
	}
	if c := cmp.Compare(plo, qlo); c != 0 {
		return c
	}
	return cmp.Compare(p.ID, q.ID)
}

// LocalRatioStrip is Algorithm Strip from the paper's appendix: a local
// ratio algorithm returning a (B/2)-packable UFPP solution for a δ-small
// instance whose capacities lie in [B, 2B). It is localRatio with charge
// unit B and unwind budget B/2.
func LocalRatioStrip(in *model.Instance, b int64) []model.Task {
	return localRatio(in.Tasks, in.Edges(), b, b/2)
}

// localRatio is the local-ratio pass shared by Algorithm Strip and the
// narrow half of UniformBaseline, with the recursion unrolled into a pick
// phase — repeatedly select the positive-weight task j* with minimum right
// endpoint (ID tie-break) and charge every intersecting task
// w(j*)·2d_j/unit — and the standard reverse unwind, which inserts each j*
// when the load on its rightmost edge e* stays within budget. The result
// is sorted by ID.
func localRatio(tasks []model.Task, edges int, unit, budget int64) []model.Task {
	n := len(tasks)
	w := make([]float64, n)
	alive := make([]bool, n)
	for j, t := range tasks {
		w[j] = float64(t.Weight)
		alive[j] = w[j] > 0
	}
	const tol = 1e-12
	var picks []int
	for {
		jstar := -1
		for j := range tasks {
			if !alive[j] || w[j] <= tol {
				continue
			}
			if jstar == -1 ||
				tasks[j].End < tasks[jstar].End ||
				(tasks[j].End == tasks[jstar].End && tasks[j].ID < tasks[jstar].ID) {
				jstar = j
			}
		}
		if jstar == -1 {
			break
		}
		picks = append(picks, jstar)
		wstar := w[jstar]
		for j := range tasks {
			if j == jstar || !alive[j] {
				continue
			}
			if tasks[j].Overlaps(tasks[jstar]) {
				w[j] -= wstar * 2 * float64(tasks[j].Demand) / float64(unit)
				if w[j] <= tol {
					alive[j] = false
				}
			}
		}
		alive[jstar] = false
	}
	// Unwind: later picks are considered first.
	load := make([]int64, edges)
	var chosen []model.Task
	for i := len(picks) - 1; i >= 0; i-- {
		t := tasks[picks[i]]
		if load[t.End-1]+t.Demand <= budget {
			for e := t.Start; e < t.End; e++ {
				load[e] += t.Demand
			}
			chosen = append(chosen, t)
		}
	}
	sort.Slice(chosen, func(i, j int) bool { return chosen[i].ID < chosen[j].ID })
	return chosen
}

// UniformBaseline is a local-ratio approximation for UFPP with uniform
// capacities in the style of Bar-Noy et al.: tasks are split into wide
// (d > c/2) and narrow (d ≤ c/2) sets; the wide set is solved exactly as
// weighted interval scheduling (at most one wide task fits per edge), the
// narrow set by a local-ratio pass, and the heavier of the two solutions is
// returned. It is the classic baseline the paper's related-work section
// attributes ratio 3 to; the experiment harness measures its actual ratio.
// The instance must have uniform capacities.
func UniformBaseline(in *model.Instance) ([]model.Task, error) {
	if !in.Uniform() {
		return nil, errors.New("ufpp: UniformBaseline requires uniform capacities")
	}
	if len(in.Tasks) == 0 {
		return nil, nil
	}
	c := in.Capacity[0]
	var wide, narrow []model.Task
	for _, t := range in.Tasks {
		if 2*t.Demand > c {
			wide = append(wide, t)
		} else {
			narrow = append(narrow, t)
		}
	}
	wideSol := solveWide(wide)
	narrowSol := localRatio(narrow, in.Edges(), c, c)
	if model.WeightOf(wideSol) >= model.WeightOf(narrowSol) {
		return wideSol, nil
	}
	return narrowSol, nil
}

// solveWide solves the wide sub-instance exactly: wide tasks each consume
// more than half of every edge they use, so a feasible set is pairwise
// disjoint — weighted interval scheduling.
func solveWide(wide []model.Task) []model.Task {
	if len(wide) == 0 {
		return nil
	}
	ivs := make([]intervals.Interval, len(wide))
	ws := make([]int64, len(wide))
	for i, t := range wide {
		ivs[i] = intervals.Interval{Start: t.Start, End: t.End}
		ws[i] = t.Weight
	}
	idx, _ := intervals.MaxWeightScheduling(ivs, ws)
	out := make([]model.Task, 0, len(idx))
	for _, i := range idx {
		out = append(out, wide[i])
	}
	return out
}
