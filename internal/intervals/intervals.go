// Package intervals provides the interval primitives the allocation
// algorithms are built on: half-open integer intervals, a lazy segment tree
// supporting range-add / range-max (used by first-fit allocators and
// validators), greedy interval-graph coloring (optimal for interval graphs;
// used to stack equal-height tasks) and exact weighted interval scheduling.
package intervals

import (
	"fmt"
	"sort"
)

// Interval is the half-open integer interval [Start, End).
type Interval struct {
	Start, End int
}

// Valid reports whether Start < End.
func (iv Interval) Valid() bool { return iv.Start < iv.End }

// Len returns End - Start.
func (iv Interval) Len() int { return iv.End - iv.Start }

// Overlaps reports whether two half-open intervals intersect.
func (iv Interval) Overlaps(o Interval) bool { return iv.Start < o.End && o.Start < iv.End }

// Contains reports whether x lies in [Start, End).
func (iv Interval) Contains(x int) bool { return iv.Start <= x && x < iv.End }

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Start, iv.End) }

// GreedyColor colors the interval graph with the minimum number of colors
// (the most intervals covering any single point) using the classic
// left-to-right greedy algorithm.
// It returns the color of each interval (0-based) and the number of colors.
func GreedyColor(ivs []Interval) (colors []int, numColors int) {
	n := len(ivs)
	colors = make([]int, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := ivs[order[a]], ivs[order[b]]
		if ia.Start != ib.Start {
			return ia.Start < ib.Start
		}
		return ia.End < ib.End
	})
	// free is a min-heap of released colors; active intervals sorted by End.
	type activeIv struct {
		end   int
		color int
	}
	var active []activeIv // kept as a heap by end
	var free []int        // stack of reusable colors (ordered for determinism)
	push := func(a activeIv) {
		active = append(active, a)
		i := len(active) - 1
		for i > 0 {
			p := (i - 1) / 2
			if active[p].end <= active[i].end {
				break
			}
			active[p], active[i] = active[i], active[p]
			i = p
		}
	}
	pop := func() activeIv {
		top := active[0]
		last := len(active) - 1
		active[0] = active[last]
		active = active[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(active) && active[l].end < active[smallest].end {
				smallest = l
			}
			if r < len(active) && active[r].end < active[smallest].end {
				smallest = r
			}
			if smallest == i {
				break
			}
			active[i], active[smallest] = active[smallest], active[i]
			i = smallest
		}
		return top
	}
	next := 0
	for _, idx := range order {
		iv := ivs[idx]
		for len(active) > 0 && active[0].end <= iv.Start {
			a := pop()
			free = append(free, a.color)
		}
		var c int
		if len(free) > 0 {
			// Reuse the smallest free color for determinism.
			best := 0
			for i := 1; i < len(free); i++ {
				if free[i] < free[best] {
					best = i
				}
			}
			c = free[best]
			free = append(free[:best], free[best+1:]...)
		} else {
			c = next
			next++
		}
		colors[idx] = c
		push(activeIv{end: iv.End, color: c})
	}
	return colors, next
}

// MaxWeightScheduling solves weighted interval scheduling (maximum-weight
// set of pairwise disjoint intervals) exactly in O(n log n) by the classic
// DP, returning the chosen indices and the total weight. It is the exact
// solver for single-machine (one-height-slot) sub-problems.
func MaxWeightScheduling(ivs []Interval, weights []int64) (chosen []int, total int64) {
	n := len(ivs)
	if n == 0 {
		return nil, 0
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ivs[order[a]].End < ivs[order[b]].End })
	// p[i] = largest j < i (in order) whose End <= Start of order[i], or -1.
	p := make([]int, n)
	ends := make([]int, n)
	for i, idx := range order {
		ends[i] = ivs[idx].End
	}
	for i, idx := range order {
		s := ivs[idx].Start
		lo, hi := 0, i // find rightmost j with ends[j] <= s
		p[i] = -1
		for lo < hi {
			mid := (lo + hi) / 2
			if ends[mid] <= s {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		p[i] = lo - 1
	}
	dp := make([]int64, n+1)
	take := make([]bool, n)
	for i := 1; i <= n; i++ {
		w := weights[order[i-1]]
		skip := dp[i-1]
		with := w
		if p[i-1] >= 0 {
			with += dp[p[i-1]+1]
		}
		if with > skip {
			dp[i] = with
			take[i-1] = true
		} else {
			dp[i] = skip
		}
	}
	for i := n; i > 0; {
		if take[i-1] {
			chosen = append(chosen, order[i-1])
			i = p[i-1] + 1
		} else {
			i--
		}
	}
	// Reverse for ascending order.
	for l, r := 0, len(chosen)-1; l < r; l, r = l+1, r-1 {
		chosen[l], chosen[r] = chosen[r], chosen[l]
	}
	return chosen, dp[n]
}
