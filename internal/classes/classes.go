// Package classes builds the bottleneck classes that every class-based arm
// solves one by one. Task j, with bottleneck b(j) and top(j) = ⌊log2 b(j)⌋,
// joins the classes k = top(j)−span+1, …, top(j), so class k holds the
// tasks with 2^k ≤ b(j) < 2^{k+span}: span 1 gives Strip-Pack's J_t
// (Section 4), span ℓ gives AlmostUniform's J^{k,ℓ} (Section 5). Clip gives
// a class its capacities clipped at 2^{k+span}, which keeps every feasible
// packing of the class (Observations 2 and 7).
package classes

import (
	"math"
	"math/bits"

	"sapalloc/internal/model"
	"sapalloc/internal/scratch"
)

// Log2 returns ⌊log2 v⌋ for v ≥ 1 (-1 for v ≤ 0).
func Log2(v int64) int {
	if v <= 0 {
		return -1
	}
	return bits.Len64(uint64(v)) - 1
}

// Plan is the non-empty classes of a task family in ascending k. Class i
// holds its tasks in input order in its own range of one buffer sized by
// the summed class sizes; a caller that writes one record per class task
// can give class i the same range of a buffer of Size() records.
//
// Classes with the same task list are neighbours in the plan: class k
// holds the tasks with top in [k, k+span), so class k+1 holds the same
// tasks exactly when no task has top k and none has top k+span, and two
// classes further apart hold the same tasks only if every class between
// them does too. The plan groups such classes into runs.
type Plan struct {
	ks    []int
	first []int // class i is tasks[first[i]:first[i+1]]
	lead  []int // class i holds the tasks of class lead[i], the first of its run
	tasks []model.Task
}

// New builds the plan of the instance's tasks for the given span (≥ 1) in
// a. Every slice of the plan lives in a.
func New(a *scratch.Arena, in *model.Instance, span int) Plan {
	if len(in.Tasks) == 0 {
		return Plan{}
	}
	tops := a.Ints(len(in.Tasks))
	bot := in.BottleneckLookup()
	kLo, kHi := math.MaxInt, math.MinInt
	for i, t := range in.Tasks {
		tops[i] = Log2(bot.Of(t))
		kLo, kHi = min(kLo, tops[i]-span+1), max(kHi, tops[i])
	}
	// next[k−kLo] counts class k, then becomes its write cursor;
	// nTop[k−kLo] counts the tasks with top k.
	next, nTop := a.IntsZero(kHi-kLo+1), a.IntsZero(kHi-kLo+1)
	for _, top := range tops {
		nTop[top-kLo]++
		for k := top - span + 1; k <= top; k++ {
			next[k-kLo]++
		}
	}
	nk := 0
	for _, size := range next {
		if size > 0 {
			nk++
		}
	}
	p := Plan{ks: a.Ints(nk)[:0], first: a.Ints(nk + 1)[:0], lead: a.Ints(nk)[:0]}
	size := 0
	for c, n := range next {
		if n > 0 {
			// Class k = kLo+c repeats class k−1 when neither the tasks
			// with top k−1 (which only k−1 holds) nor those with top
			// k−1+span (which only k holds) exist.
			i := len(p.ks)
			if i > 0 && p.ks[i-1] == kLo+c-1 && nTop[c-1] == 0 && (c-1+span >= len(nTop) || nTop[c-1+span] == 0) {
				p.lead = append(p.lead, p.lead[i-1])
			} else {
				p.lead = append(p.lead, i)
			}
			p.ks = append(p.ks, kLo+c)
			p.first = append(p.first, size)
		}
		next[c] = size
		size += n
	}
	p.first = append(p.first, size)
	p.tasks = a.Tasks(size)
	for i, t := range in.Tasks {
		for k := tops[i] - span + 1; k <= tops[i]; k++ {
			p.tasks[next[k-kLo]] = t
			next[k-kLo]++
		}
	}
	return p
}

// Len returns the number of classes.
func (p Plan) Len() int { return len(p.ks) }

// K returns the exponent k of class i.
func (p Plan) K(i int) int { return p.ks[i] }

// Lead returns the first class of class i's run: the classes from Lead(i)
// to i hold the same tasks, in the same order.
func (p Plan) Lead(i int) int { return p.lead[i] }

// Range returns class i's range [lo, hi) of the plan's buffer.
func (p Plan) Range(i int) (lo, hi int) { return p.first[i], p.first[i+1] }

// Tasks returns class i's tasks, in input order.
func (p Plan) Tasks(i int) []model.Task { return p.tasks[p.first[i]:p.first[i+1]] }

// Size returns the summed class sizes.
func (p Plan) Size() int { return len(p.tasks) }

// Clip returns a copy of capacity in a, clipped at 2^{k+span}. Outside
// 0 ≤ k+span < 62 the copy is not clipped.
func Clip(a *scratch.Arena, capacity []int64, k, span int) []int64 {
	hi := int64(math.MaxInt64)
	if e := k + span; e >= 0 && e < 62 {
		hi = 1 << uint(e)
	}
	out := a.Int64s(len(capacity))
	for e, c := range capacity {
		out[e] = min(c, hi)
	}
	return out
}
