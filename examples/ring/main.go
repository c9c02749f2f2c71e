// SAP on ring networks (Section 7 of the paper): tasks on a cycle may be
// routed clockwise or counter-clockwise, and the algorithm of Theorem 5
// combines a cut-edge path solution with a knapsack stack through the
// minimum-capacity edge for a (10+ε)-approximation.
//
// The example builds a metro-ring workload, solves it, compares against the
// exact ring optimum (the instance is small enough), and shows which
// reduction arm won.
package main

import (
	"errors"
	"fmt"
	"log"

	"sapalloc/internal/exact"
	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/ringsap"
)

func main() {
	ring := gen.Ring(9, 6, 9, 16, 48)
	fmt.Printf("ring: %d edges, capacities %v\n", ring.Edges(), ring.Capacity)
	fmt.Printf("tasks: %d (each may route cw or ccw)\n\n", len(ring.Tasks))

	res, err := ringsap.Solve(ring, ringsap.Params{Eps: 0.5})
	if err != nil {
		log.Fatalf("solve: %v", err)
	}
	if err := model.ValidRingSAP(ring, res.Solution); err != nil {
		log.Fatalf("infeasible: %v", err)
	}
	fmt.Printf("cut edge: %d (the ring minimum)\n", res.CutEdge)
	fmt.Printf("arm weights: path=%d, knapsack-through-cut=%d → winner: %s\n",
		res.PathWeight, res.KnapsackWeight, res.Winner)
	fmt.Printf("scheduled %d/%d tasks, weight %d\n\n", res.Solution.Len(), len(ring.Tasks), res.Solution.Weight())

	for _, p := range res.Solution.Items {
		fmt.Printf("  task %d  %-3s  slots [%d,%d)  weight %d\n",
			p.Task.ID, p.Orientation, p.Height, p.Top(), p.Task.Weight)
	}

	// Exact comparison (branch & bound over each task's orientation and
	// height). On a budget exhaustion the incumbent is still a valid lower
	// bound on OPT.
	opt, err := exact.SolveRingSAP(ring, exact.Options{})
	note := ""
	if errors.Is(err, exact.ErrBudget) {
		note = " (search budget hit — incumbent optimum)"
	} else if err != nil {
		log.Fatalf("exact: %v", err)
	}
	fmt.Printf("\nexact ring optimum: %d%s → measured ratio %.2f (proven bound 10+ε)\n",
		opt.Weight(), note, float64(opt.Weight())/float64(res.Solution.Weight()))
}
