package lp

import (
	"context"
	"fmt"

	"sapalloc/internal/model"
	"sapalloc/internal/scratch"
)

// UFPPRelaxation builds the LP relaxation of program (1) in the paper for
// the given instance: one column x_j ∈ [0,1] per task, one row per edge with
// Σ_{j∈S(e)} d_j x_j ≤ c_e, objective Σ w_j x_j. Rows for edges used by no
// task are kept (harmless) so row i always corresponds to edge i.
func UFPPRelaxation(in *model.Instance) *Problem {
	m := in.Edges()
	n := len(in.Tasks)
	p := &Problem{
		A: make([][]float64, m),
		B: make([]float64, m),
		C: make([]float64, n),
		U: make([]float64, n),
	}
	for e := 0; e < m; e++ {
		p.A[e] = make([]float64, n)
		p.B[e] = float64(in.Capacity[e])
	}
	for j, t := range in.Tasks {
		p.C[j] = float64(t.Weight)
		p.U[j] = 1
		for e := t.Start; e < t.End; e++ {
			p.A[e][j] = float64(t.Demand)
		}
	}
	return p
}

// UFPPFractional solves the UFPP LP relaxation and returns the fractional
// task values x (indexed like in.Tasks) and the LP optimum, a valid upper
// bound on both the UFPP and the SAP integral optima.
func UFPPFractional(in *model.Instance) (x []float64, opt float64, err error) {
	return UFPPFractionalCtx(context.Background(), in)
}

// UFPPFractionalCtx is UFPPFractional under a context.
func UFPPFractionalCtx(ctx context.Context, in *model.Instance) (x []float64, opt float64, err error) {
	a, owned := scratch.Acquire(ctx)
	defer scratch.Put(owned)
	ax, opt, err := UFPPFractionalIn(ctx, a, in)
	if err != nil {
		return nil, 0, err
	}
	x = make([]float64, len(ax))
	copy(x, ax)
	return x, opt, nil
}

// UFPPFractionalIn is UFPPFractionalCtx for a caller that keeps the
// fractional solution in its arena: the LP of UFPPRelaxation is written
// straight into an arena tableau, and x is arena memory that lives until a
// is reset.
func UFPPFractionalIn(ctx context.Context, a *scratch.Arena, in *model.Instance) (x []float64, opt float64, err error) {
	var tab tableau
	tab.init(a, in.Edges(), len(in.Tasks))
	for e, c := range in.Capacity {
		if c < 0 {
			return nil, 0, fmt.Errorf("ufpp relaxation: %w: rhs %d is negative (%d)", ErrMalformed, e, c)
		}
		tab.beta[e] = float64(c)
	}
	for j, t := range in.Tasks {
		tab.c[j] = float64(t.Weight)
		tab.upper[j] = 1
		for e := t.Start; e < t.End; e++ {
			tab.t[e*tab.total+j] = float64(t.Demand)
		}
	}
	if _, err := tab.solve(ctx); err != nil {
		return nil, 0, fmt.Errorf("ufpp relaxation: %w", err)
	}
	x = a.Float64s(len(in.Tasks))
	return x, tab.primal(x), nil
}

// VerifyFeasible checks that x is feasible for p within tolerance tol; it
// returns a descriptive error on the first violation. Used by tests and by
// the experiment harness as a safety net around the solver.
func VerifyFeasible(p *Problem, x []float64, tol float64) error {
	if len(x) != len(p.C) {
		return fmt.Errorf("lp: solution has %d entries, want %d", len(x), len(p.C))
	}
	for j, v := range x {
		if v < -tol || v > p.U[j]+tol {
			return fmt.Errorf("lp: x[%d]=%g outside [0,%g]", j, v, p.U[j])
		}
	}
	for i, row := range p.A {
		var lhs float64
		for j, a := range row {
			lhs += a * x[j]
		}
		if lhs > p.B[i]+tol*(1+p.B[i]) {
			return fmt.Errorf("lp: row %d violated: %g > %g", i, lhs, p.B[i])
		}
	}
	return nil
}

// DualBound computes the weak-duality upper bound b·y + Σ_j max(0, c_j − (A^T y)_j)·u_j
// for a dual vector y ≥ 0. At simplex optimality this equals the primal
// objective; tests use it to certify optimality independent of the pivot
// path. Columns with infinite upper bound must be fully covered by the dual
// (the function returns +Inf otherwise is avoided since packing columns are
// bounded).
func DualBound(p *Problem, y []float64) float64 {
	bound := 0.0
	for i, b := range p.B {
		bound += b * y[i]
	}
	for j := range p.C {
		red := p.C[j]
		for i := range p.A {
			red -= p.A[i][j] * y[i]
		}
		if red > 0 {
			bound += red * p.U[j]
		}
	}
	return bound
}
