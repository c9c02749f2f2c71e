package model

import "math/bits"

// BottleneckIndex answers bottleneck (range-minimum) queries over a
// capacity profile in O(1) after an O(m log m) sparse-table build. Every
// solver in the pipeline asks for b(j) = min_{e ∈ I_j} c_e — per task, per
// class, per rectangle — so on instances with long sub-paths the index
// replaces Θ(|I_j|) linear scans with two table lookups.
//
// The index is immutable after construction and safe for concurrent use,
// which lets the parallel arms of core.Solve share one build.
type BottleneckIndex struct {
	// rows[k][i] = min Capacity[i : i+2^k]; rows[0] aliases the capacity
	// slice it was built from (the builders never mutate capacities).
	rows [][]int64
}

// NewBottleneckIndex builds the sparse table for the given capacity
// profile. The slice is retained (not copied); callers must not mutate it
// afterwards — the same read-only contract Instance.Restrict relies on.
func NewBottleneckIndex(capacity []int64) *BottleneckIndex {
	m := len(capacity)
	ix := &BottleneckIndex{rows: [][]int64{capacity}}
	for width := 2; width <= m; width *= 2 {
		prev := ix.rows[len(ix.rows)-1]
		row := make([]int64, m-width+1)
		for i := range row {
			a, b := prev[i], prev[i+width/2]
			if b < a {
				a = b
			}
			row[i] = a
		}
		ix.rows = append(ix.rows, row)
	}
	return ix
}

// Edges returns the number of edges the index covers.
func (ix *BottleneckIndex) Edges() int { return len(ix.rows[0]) }

// RangeMin returns min Capacity[start:end] for the half-open edge range
// [start, end), 0 ≤ start < end ≤ m, in O(1).
func (ix *BottleneckIndex) RangeMin(start, end int) int64 {
	k := bits.Len(uint(end-start)) - 1
	row := ix.rows[k]
	a, b := row[start], row[end-(1<<k)]
	if b < a {
		return b
	}
	return a
}

// Bottleneck returns b(t) = min_{e ∈ [Start, End)} c_e in O(1).
func (ix *BottleneckIndex) Bottleneck(t Task) int64 {
	return ix.RangeMin(t.Start, t.End)
}

// Bottlenecks returns b(j) for every task, indexed like tasks.
func (ix *BottleneckIndex) Bottlenecks(tasks []Task) []int64 {
	out := make([]int64, len(tasks))
	for i, t := range tasks {
		out[i] = ix.RangeMin(t.Start, t.End)
	}
	return out
}

// ArcMin returns the minimum capacity along the ring arc that starts at
// edge from and walks clockwise up to (but excluding) edge to, i.e. edges
// from, from+1, …, to-1 taken mod m. A wrapping arc costs two RangeMin
// calls, a non-wrapping one costs one; from == to denotes the full cycle.
func (ix *BottleneckIndex) ArcMin(from, to int) int64 {
	if from < to {
		return ix.RangeMin(from, to)
	}
	m := ix.Edges()
	a := ix.RangeMin(from, m)
	if to > 0 {
		if b := ix.RangeMin(0, to); b < a {
			return b
		}
	}
	return a
}

// rmqMinEdges and rmqMinTasks gate when BottleneckLookup pays for the
// O(m log m) build: below either threshold the plain linear scan wins.
const (
	rmqMinEdges = 64
	rmqMinTasks = 8
)

// BottleneckLookup answers b(j) queries for the tasks of one instance. It
// is a small value with no closure behind it, so taking one allocates
// nothing below the index's size gate, and it is safe for concurrent use.
type BottleneckLookup struct {
	in *Instance
	ix *BottleneckIndex // nil below the size gate
}

// Of returns b(t) = min_{e ∈ [Start, End)} c_e.
func (l BottleneckLookup) Of(t Task) int64 {
	if l.ix != nil {
		return l.ix.Bottleneck(t)
	}
	return l.in.Bottleneck(t)
}

// BottleneckLookup returns the instance's bottleneck lookup. On instances
// large enough for the sparse-table build to pay off (≥ 64 edges and ≥ 8
// tasks) it answers in O(1) via a BottleneckIndex; otherwise it falls back
// to the linear scan.
func (in *Instance) BottleneckLookup() BottleneckLookup {
	if in.Edges() >= rmqMinEdges && len(in.Tasks) >= rmqMinTasks {
		return BottleneckLookup{ix: NewBottleneckIndex(in.Capacity)}
	}
	return BottleneckLookup{in: in}
}
