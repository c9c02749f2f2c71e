package exact_test

import (
	"fmt"
	"testing"

	"sapalloc/internal/exact"
	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/oracle"
	"sapalloc/internal/ringsap"
)

// TestRingExactVsApprox cross-checks the two independent ring engines on
// small rings: the exact reference (one search branching over both
// orientations of every task) and the (10+ε)-approximation of Theorem 5.
// Both must be oracle-feasible, the approximation can never beat the
// optimum, the ratio must stay within 10+ε, and across the suite the
// solutions must exercise both arc orientations (otherwise the ring
// reduction degenerates to a path test).
func TestRingExactVsApprox(t *testing.T) {
	seeds := []struct {
		seed         int64
		edges, tasks int
	}{
		{801, 3, 4}, {802, 4, 5}, {803, 5, 6}, {804, 4, 7}, {805, 6, 5}, {806, 5, 7},
	}
	orientations := map[model.Orientation]bool{}
	for _, s := range seeds {
		ring := gen.Ring(s.seed, s.edges, s.tasks, 8, 33)
		replay := fmt.Sprintf("gen.Ring(%d, %d, %d, 8, 33)", s.seed, s.edges, s.tasks)

		opt, err := exact.SolveRingSAP(ring, exact.Options{MaxNodes: 30_000_000})
		if err != nil {
			t.Fatalf("[replay: %s] exact: %v", replay, err)
		}
		if err := oracle.CheckRing(ring, opt); err != nil {
			t.Errorf("[replay: %s] exact solution: %v", replay, err)
		}
		res, err := ringsap.Solve(ring, ringsap.Params{})
		if err != nil {
			t.Fatalf("[replay: %s] ringsap: %v", replay, err)
		}
		if err := oracle.CheckRing(ring, res.Solution); err != nil {
			t.Errorf("[replay: %s] ringsap solution: %v", replay, err)
		}
		b := oracle.ExactBound(opt.Weight())
		if err := oracle.CheckUpper(res.Solution.Weight(), b); err != nil {
			t.Errorf("[replay: %s] %v", replay, err)
		}
		if err := oracle.CheckRatio(res.Solution.Weight(), 10.5, b); err != nil {
			t.Errorf("[replay: %s] %v", replay, err)
		}
		for _, p := range opt.Items {
			orientations[p.Orientation] = true
		}
		for _, p := range res.Solution.Items {
			orientations[p.Orientation] = true
		}
	}
	if !orientations[model.Clockwise] || !orientations[model.CounterClockwise] {
		t.Errorf("suite exercised orientations %v, want both cw and ccw", orientations)
	}
}
