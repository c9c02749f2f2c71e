// Package lp implements a dense bounded-variable primal simplex solver for
// packing linear programs of the form
//
//	maximize  c·x   subject to   A·x ≤ b,   0 ≤ x ≤ u,
//
// with b ≥ 0 (so the all-slack basis is feasible). It is the substrate for
// the UFPP LP-relaxation (program (1) in the paper): one row per edge, one
// column per task, u = 1. The solver maintains a full tableau with variable
// bounds handled implicitly (bound flips), uses Dantzig pricing and falls
// back to Bland's rule after a run of degenerate pivots to guarantee
// termination.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sapalloc/internal/faultinject"
	"sapalloc/internal/saperr"
	"sapalloc/internal/scratch"
)

// Problem describes max c·x s.t. A·x ≤ b, 0 ≤ x ≤ u. A is dense, row-major:
// A[i][j] multiplies x_j in constraint i. An entry of u may be
// math.Inf(1) for an unbounded-above variable.
type Problem struct {
	A [][]float64
	B []float64
	C []float64
	U []float64
}

// Solution carries the optimal primal point, objective, and the dual values
// of the row constraints (one per row, ≥ 0 at optimality).
type Solution struct {
	X         []float64
	Objective float64
	Dual      []float64
	// Iterations is the number of simplex pivots (including bound flips).
	Iterations int
}

// ErrUnbounded is returned when the LP is unbounded above (cannot happen for
// well-formed packing instances, but the solver detects it).
var ErrUnbounded = errors.New("lp: unbounded")

// ErrMalformed is returned when the problem dimensions are inconsistent or
// b has negative entries.
var ErrMalformed = errors.New("lp: malformed problem")

const (
	eps         = 1e-9
	maxIterMult = 200 // iteration cap: maxIterMult * (n+m+1)
)

type status int8

const (
	atLower status = iota
	atUpper
	basic
)

// Solve runs the bounded-variable primal simplex. The returned solution is
// primal feasible and satisfies the optimality conditions up to a 1e-7
// tolerance.
func Solve(p *Problem) (*Solution, error) {
	return SolveCtx(context.Background(), p)
}

// SolveCtx is Solve under a context, polled once per pivot. Simplex has no
// useful partial answer (an interior tableau is not primal optimal), so on
// cancellation it returns a typed saperr.ErrCancelled and no solution. The
// tableau lives in the context's arena (a pooled one when it carries
// none); the returned Solution is fresh memory.
func SolveCtx(ctx context.Context, p *Problem) (*Solution, error) {
	m := len(p.A)
	if len(p.B) != m {
		return nil, fmt.Errorf("%w: %d rows but %d rhs entries", ErrMalformed, m, len(p.B))
	}
	n := len(p.C)
	if len(p.U) != n {
		return nil, fmt.Errorf("%w: %d columns but %d bounds", ErrMalformed, n, len(p.U))
	}
	for i, row := range p.A {
		if len(row) != n {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrMalformed, i, len(row), n)
		}
		if p.B[i] < 0 {
			return nil, fmt.Errorf("%w: rhs %d is negative (%g)", ErrMalformed, i, p.B[i])
		}
	}
	for j, u := range p.U {
		if u < 0 {
			return nil, fmt.Errorf("%w: upper bound of column %d is negative (%g)", ErrMalformed, j, u)
		}
	}
	a, owned := scratch.Acquire(ctx)
	defer scratch.Put(owned)
	var tab tableau
	tab.init(a, m, n)
	for i, row := range p.A {
		copy(tab.row(i), row)
	}
	copy(tab.beta, p.B)
	copy(tab.c, p.C)
	copy(tab.upper, p.U)
	iters, err := tab.solve(ctx)
	if err != nil {
		return nil, err
	}
	x := make([]float64, n)
	dual := make([]float64, m)
	return &Solution{X: x, Objective: tab.primal(x), Dual: tab.duals(dual), Iterations: iters}, nil
}

// tableau is the simplex state over n structural and m slack columns, all
// in arena memory. t is B^-1 A (m × (n+m), row-major), beta the current
// basic values, d the reduced costs and basisOf maps rows to variable
// indices. init sets up the all-slack basis of max c·x s.t. A·x ≤ b,
// 0 ≤ x ≤ u with A, b, c and u zero; the caller fills the structural
// columns of t and the first n entries of c and upper, and beta with b.
type tableau struct {
	m, n, total int
	t           []float64
	beta        []float64
	c           []float64 // the objective, len n
	d           []float64
	upper       []float64
	stat        []status
	basisOf     []int
}

// statusKind poisons with a status that is none of the three.
var statusKind = scratch.NewKind(status(0x5A))

func (tab *tableau) init(a *scratch.Arena, m, n int) {
	total := n + m
	*tab = tableau{
		m: m, n: n, total: total,
		t:       a.Float64sZero(m * total),
		beta:    a.Float64sZero(m),
		c:       a.Float64sZero(n),
		d:       a.Float64s(total),
		upper:   a.Float64sZero(total),
		stat:    statusKind.MakeZero(a, total), // atLower
		basisOf: a.Ints(m),
	}
	for i := 0; i < m; i++ {
		tab.t[i*total+n+i] = 1
		tab.basisOf[i] = n + i
		tab.stat[n+i] = basic
	}
	for j := n; j < total; j++ {
		tab.upper[j] = math.Inf(1)
	}
}

// row returns the structural part of row i of t.
func (tab *tableau) row(i int) []float64 { return tab.t[i*tab.total : i*tab.total+tab.n] }

// solve pivots to optimality and returns the pivot count.
func (tab *tableau) solve(ctx context.Context) (int, error) {
	m, n, total := tab.m, tab.n, tab.total
	T, beta, d, upper, stat, basisOf := tab.t, tab.beta, tab.d, tab.upper, tab.stat, tab.basisOf
	copy(d, tab.c)
	clear(d[n:])
	obj := 0.0
	// value of each nonbasic variable (0 at lower, upper[j] at upper).
	nbVal := func(j int) float64 {
		if stat[j] == atUpper {
			return upper[j]
		}
		return 0
	}

	iters := 0
	degenerate := 0
	maxIter := maxIterMult * (total + 1)
	for {
		iters++
		if iters&63 == 0 {
			faultinject.Fire(ctx, "lp/simplex/pivot")
			if err := saperr.FromContext(ctx); err != nil {
				return iters, err
			}
		}
		if iters > maxIter {
			return iters, fmt.Errorf("lp: iteration limit %d exceeded", maxIter)
		}
		useBland := degenerate > 2*(total+1)

		// Pricing: pick entering variable.
		enter := -1
		bestScore := eps
		for j := 0; j < total; j++ {
			if stat[j] == basic {
				continue
			}
			var score float64
			if stat[j] == atLower && d[j] > eps {
				score = d[j]
			} else if stat[j] == atUpper && d[j] < -eps {
				score = -d[j]
			} else {
				continue
			}
			if useBland {
				enter = j
				break
			}
			if score > bestScore {
				bestScore = score
				enter = j
			}
		}
		if enter == -1 {
			break // optimal
		}

		// Direction: increasing x_enter if at lower, decreasing if at upper.
		sign := 1.0
		if stat[enter] == atUpper {
			sign = -1.0
		}

		// Ratio test. x_B(i) = beta[i] - t*sign*T[i][enter]; keep within
		// [0, upper[basisOf[i]]]. Also t ≤ range of the entering variable.
		tMax := upper[enter] // bound-flip distance (inf for slacks)
		leave := -1
		leaveAt := atLower
		for i := 0; i < m; i++ {
			a := sign * T[i*total+enter]
			bi := basisOf[i]
			var lim float64
			var hitsUpper bool
			switch {
			case a > eps:
				lim = beta[i] / a // basic variable drops to 0
				hitsUpper = false
			case a < -eps:
				ub := upper[bi]
				if math.IsInf(ub, 1) {
					continue
				}
				lim = (ub - beta[i]) / (-a) // basic variable rises to its bound
				hitsUpper = true
			default:
				continue
			}
			if lim < 0 {
				lim = 0
			}
			better := lim < tMax-eps
			// Bland tie-break: among (near-)equal limits prefer the leaving
			// candidate with the smallest variable index to prevent cycling.
			tie := useBland && leave != -1 && math.Abs(lim-tMax) <= eps && bi < basisOf[leave]
			if better || tie {
				tMax = lim
				leave = i
				if hitsUpper {
					leaveAt = atUpper
				} else {
					leaveAt = atLower
				}
			}
		}
		if math.IsInf(tMax, 1) {
			return iters, ErrUnbounded
		}
		if tMax < eps {
			degenerate++
		} else {
			degenerate = 0
		}

		if leave == -1 {
			// Bound flip: entering variable moves across its whole range.
			t := tMax
			for i := 0; i < m; i++ {
				beta[i] -= t * sign * T[i*total+enter]
			}
			obj += t * sign * d[enter]
			if stat[enter] == atLower {
				stat[enter] = atUpper
			} else {
				stat[enter] = atLower
			}
			continue
		}

		// Pivot: entering becomes basic in row leave.
		t := tMax
		piv := T[leave*total+enter]
		// New value of entering variable.
		enterVal := nbVal(enter) + sign*t
		// Update beta for all rows, then fix row leave to enterVal.
		for i := 0; i < m; i++ {
			beta[i] -= t * sign * T[i*total+enter]
		}
		obj += t * sign * d[enter]

		out := basisOf[leave]
		stat[out] = leaveAt
		stat[enter] = basic
		basisOf[leave] = enter

		// Row reduce: make column 'enter' a unit vector with 1 in row leave.
		invPiv := 1.0 / piv
		pivRow := T[leave*total : (leave+1)*total]
		for j := range pivRow {
			pivRow[j] *= invPiv
		}
		beta[leave] = enterVal
		for i := 0; i < m; i++ {
			if i == leave {
				continue
			}
			rowI := T[i*total : (i+1)*total]
			f := rowI[enter]
			if f == 0 {
				continue
			}
			for j := range rowI {
				rowI[j] -= f * pivRow[j]
			}
		}
		f := d[enter]
		if f != 0 {
			for j := 0; j < total; j++ {
				d[j] -= f * pivRow[j]
			}
		}
	}
	return iters, nil
}

// primal writes the optimal point into x (len n) and returns its
// objective, recomputed from x for numerical hygiene.
func (tab *tableau) primal(x []float64) float64 {
	for j := range x {
		x[j] = 0
		if tab.stat[j] == atUpper {
			x[j] = tab.upper[j]
		}
	}
	for i, bi := range tab.basisOf {
		if bi < tab.n {
			x[bi] = tab.beta[i]
		}
	}
	objX := 0.0
	for j, v := range x {
		objX += tab.c[j] * v
	}
	return objX
}

// duals writes the row duals into dual (len m) and returns it:
// y_i = -d[slack_i] (reduced cost of slack i is -y_i for max LPs).
func (tab *tableau) duals(dual []float64) []float64 {
	for i := range dual {
		dual[i] = -tab.d[tab.n+i]
		if dual[i] < 0 && dual[i] > -1e-7 {
			dual[i] = 0
		}
	}
	return dual
}
