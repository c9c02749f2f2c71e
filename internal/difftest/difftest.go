// Package difftest is the cross-solver differential harness: every solver
// in the library runs on the same seeded generator matrix, every result is
// fed through internal/oracle, measured ratios are checked against the
// exact optimum on exact-solvable instances and against the LP upper bound
// on larger ones, and metamorphic transforms (mirror, scaling, ID
// permutation, capacity clipping) assert the invariances the paper's
// reductions promise.
//
// Every failure report carries a replay line (a Go one-liner rebuilding
// the instance) so any counterexample the matrix finds can be pasted into
// a regression test verbatim.
package difftest

import (
	"errors"
	"fmt"
	"testing"

	"sapalloc/internal/chendp"
	"sapalloc/internal/core"
	"sapalloc/internal/exact"
	"sapalloc/internal/gen"
	"sapalloc/internal/largesap"
	"sapalloc/internal/mediumsap"
	"sapalloc/internal/model"
	"sapalloc/internal/oracle"
	"sapalloc/internal/ringsap"
	"sapalloc/internal/smallsap"
	"sapalloc/internal/ufpp"
	"sapalloc/internal/ufppfull"
	"sapalloc/internal/window"
)

// Case is one cell of the differential matrix: a generated instance plus
// the replay line that rebuilds it.
type Case struct {
	Name   string
	Replay string
	In     *model.Instance
}

// randomCase builds a Case from a generator config, deriving name and
// replay line from the config itself.
func randomCase(name string, cfg gen.Config) Case {
	return Case{Name: name, Replay: cfg.Replay(), In: gen.Random(cfg)}
}

// PathCases returns the generator matrix: every demand-regime class of
// gen.Random at an exact-solvable and a large size, plus the structured
// generators (uniform capacities, no-bottleneck, staircase capacities,
// knapsack-degenerate). Each generator class appears with a fixed seed so
// the matrix is fully deterministic.
func PathCases() []Case {
	var cases []Case
	// Random instances: 4 classes × {small, large}.
	for _, cl := range []gen.Class{gen.Mixed, gen.Small, gen.Medium, gen.Large} {
		cases = append(cases,
			randomCase("rand-"+cl.String()+"-s", gen.Config{
				Seed: 100 + int64(cl), Edges: 4, Tasks: 9, CapLo: 16, CapHi: 65, Class: cl,
			}),
			randomCase("rand-"+cl.String()+"-l", gen.Config{
				Seed: 200 + int64(cl), Edges: 10, Tasks: 48, CapLo: 64, CapHi: 257, Class: cl,
			}),
		)
	}
	// Uniform capacities (SAP-U): exercises ufpp.UniformBaseline too.
	cases = append(cases,
		Case{Name: "uniform-s", Replay: "gen.Uniform(301, 5, 10, 64, gen.Mixed)", In: gen.Uniform(301, 5, 10, 64, gen.Mixed)},
		Case{Name: "uniform-l", Replay: "gen.Uniform(302, 8, 48, 128, gen.Small)", In: gen.Uniform(302, 8, 48, 128, gen.Small)},
	)
	// No-bottleneck assumption instances.
	cases = append(cases,
		Case{Name: "nba-s", Replay: "gen.NBA(401, 4, 9)", In: gen.NBA(401, 4, 9)},
		Case{Name: "nba-l", Replay: "gen.NBA(402, 10, 48)", In: gen.NBA(402, 10, 48)},
	)
	// Staircase capacity profile: bottlenecks at task endpoints.
	cases = append(cases,
		Case{Name: "stair-s", Replay: "gen.Staircase(501, 5, 9, 16, gen.Mixed)", In: gen.Staircase(501, 5, 9, 16, gen.Mixed)},
		Case{Name: "stair-l", Replay: "gen.Staircase(502, 12, 48, 32, gen.Mixed)", In: gen.Staircase(502, 12, 48, 32, gen.Mixed)},
	)
	// Knapsack-degenerate: every task crosses one shared edge.
	cases = append(cases,
		Case{Name: "knap-s", Replay: "gen.KnapsackDegenerate(601, 10, 40)", In: gen.KnapsackDegenerate(601, 10, 40)},
	)
	return cases
}

// SAPSolver is one row of the differential matrix for path SAP.
type SAPSolver struct {
	Name string
	// Solve runs the solver; returning (nil, nil) skips the case (solver
	// not applicable, e.g. exhaustive engines on large instances).
	Solve func(*model.Instance) (*model.Solution, error)
	// Factor returns the solver's proven approximation factor on this
	// instance (at the default ε = 0.5), or 0 when its theorem does not
	// cover the instance — feasibility and the upper bound are still
	// enforced then.
	Factor func(*model.Instance) float64
}

// classCounts partitions per Theorem 4 (δ = 1/16, k = 2).
func classCounts(in *model.Instance) (small, medium, large int) {
	s, m, l := core.Partition(in, 16)
	return len(s), len(m), len(l)
}

// SAPSolvers returns the SAP solver registry: both Strip-Pack roundings,
// AlmostUniform, the rectangle reduction, the combined (9+ε) core, and the
// window adapter degenerated to plain SAP. The adapter runs the same
// branch-and-bound as the bound, one choice per start offset, so its
// Factor 1 pins the adapter's agreement with the bound on small instances
// rather than a second engine's.
func SAPSolvers() []SAPSolver {
	return []SAPSolver{
		{
			Name: "smallsap/lp",
			Solve: func(in *model.Instance) (*model.Solution, error) {
				r, err := smallsap.Solve(in, smallsap.Params{})
				return sub(r), err
			},
			Factor: func(in *model.Instance) float64 {
				if _, m, l := classCounts(in); m == 0 && l == 0 {
					return 4.5 // Theorem 1: 4+ε on δ-small instances
				}
				return 0
			},
		},
		{
			Name: "smallsap/local-ratio",
			Solve: func(in *model.Instance) (*model.Solution, error) {
				r, err := smallsap.Solve(in, smallsap.Params{Rounding: smallsap.LocalRatio})
				return sub(r), err
			},
			Factor: func(in *model.Instance) float64 {
				if _, m, l := classCounts(in); m == 0 && l == 0 {
					return 5.5 // appendix Algorithm Strip: 5+ε
				}
				return 0
			},
		},
		{
			Name: "mediumsap",
			// AlmostUniform's contract (Lemma 14's elevation) requires an
			// all-medium instance; off-contract its output may be
			// infeasible, so the registry gates it the way core does.
			Solve: func(in *model.Instance) (*model.Solution, error) {
				if s, _, l := classCounts(in); s != 0 || l != 0 {
					return nil, nil
				}
				r, err := mediumsap.Solve(in, mediumsap.Params{})
				return subM(r), err
			},
			Factor: func(in *model.Instance) float64 {
				return 2.5 // Theorem 2: 2+ε (Solve already gated to medium)
			},
		},
		{
			Name:  "largesap",
			Solve: func(in *model.Instance) (*model.Solution, error) { return largesap.Solve(in, largesap.Options{}) },
			Factor: func(in *model.Instance) float64 {
				if s, m, _ := classCounts(in); s == 0 && m == 0 {
					return 3 // Theorem 3: 2k−1 with k = 2 on ½-large instances
				}
				return 0
			},
		},
		{
			Name: "core",
			Solve: func(in *model.Instance) (*model.Solution, error) {
				r, err := core.Solve(in, core.Params{})
				return subC(r), err
			},
			Factor: func(*model.Instance) float64 { return 9.5 }, // Theorem 4: 9+ε
		},
		{
			Name: "window-exact",
			Solve: func(in *model.Instance) (*model.Solution, error) {
				if len(in.Tasks) > 14 {
					return nil, nil // exhaustive engine: small instances only
				}
				ws, err := window.SolveExact(window.Fixed(in), window.Options{MaxNodes: 4_000_000})
				if err != nil {
					if errors.Is(err, window.ErrBudget) {
						return nil, nil
					}
					return nil, err
				}
				sol := &model.Solution{}
				for _, p := range ws.Items {
					t, ok := in.TaskByID(p.Task.ID)
					if !ok {
						return nil, fmt.Errorf("window solution refers to unknown task %d", p.Task.ID)
					}
					sol.Items = append(sol.Items, model.Placement{Task: t, Height: p.Height})
				}
				return sol, nil
			},
			Factor: func(*model.Instance) float64 { return 1 }, // exact engine
		},
	}
}

func sub(r *smallsap.Result) *model.Solution {
	if r == nil {
		return nil
	}
	return r.Solution
}
func subM(r *mediumsap.Result) *model.Solution {
	if r == nil {
		return nil
	}
	return r.Solution
}
func subC(r *core.Result) *model.Solution {
	if r == nil {
		return nil
	}
	return r.Solution
}

// UFPPSolver is one row of the differential matrix for UFPP task sets.
type UFPPSolver struct {
	Name  string
	Solve func(*model.Instance) ([]model.Task, error) // (nil, nil) skips
}

// UFPPSolvers returns the UFPP registry: the Bonsma-style combined
// pipeline, the local-ratio uniform baseline (uniform instances only), and
// the state-bounded path DP (a second exact engine; skipped when its state
// budget overflows).
func UFPPSolvers() []UFPPSolver {
	return []UFPPSolver{
		{
			Name: "ufppfull",
			Solve: func(in *model.Instance) ([]model.Task, error) {
				r, err := ufppfull.Solve(in, ufppfull.Params{})
				if err != nil {
					return nil, err
				}
				return r.Tasks, nil
			},
		},
		{
			Name: "ufpp/uniform-baseline",
			Solve: func(in *model.Instance) ([]model.Task, error) {
				if !in.Uniform() {
					return nil, nil
				}
				return ufpp.UniformBaseline(in)
			},
		},
		{
			Name: "exact/path-dp",
			Solve: func(in *model.Instance) ([]model.Task, error) {
				sel, err := exact.SolveUFPPPathDP(in, 200_000)
				if err != nil {
					return nil, nil // state budget overflow: not applicable
				}
				if sel == nil {
					sel = []model.Task{}
				}
				return sel, nil
			},
		},
	}
}

// exactNodeBudget bounds the reference branch-and-bound per case; within
// the matrix's small sizes the budget is never hit.
const exactNodeBudget = 4_000_000

// dpHook dispatches thin small-capacity instances to the occupancy DP, the
// third exact engine (see exact.SolveSAPAuto).
func dpHook(in *model.Instance) (*model.Solution, error) {
	if in.Uniform() {
		return chendp.Solve(in, chendp.Options{})
	}
	return chendp.SolveNonUniform(in, chendp.Options{})
}

// Bounds carries the per-case reference values the matrix checks against.
type Bounds struct {
	// SAP upper-bounds OPT_SAP; UFPP upper-bounds OPT_UFPP. Both fall back
	// to the LP optimum when the exact engines are out of reach.
	SAP, UFPP oracle.Bound
	// ExactSAP/ExactUFPP report whether the bound is an exact optimum (in
	// which case ratio assertions apply) rather than an LP relaxation.
	ExactSAP, ExactUFPP bool
}

// ComputeBounds resolves the reference bounds for a case: exact optima via
// exact.SolveSAPAuto / exact.SolveUFPP when the instance is small enough,
// the LP relaxation otherwise.
func ComputeBounds(in *model.Instance) (Bounds, error) {
	var b Bounds
	lpBound, lpErr := oracle.LPBound(in)
	small := len(in.Tasks) <= 20
	if small {
		if opt, err := exact.SolveSAPAuto(in, exact.Options{MaxNodes: exactNodeBudget}, dpHook); err == nil {
			b.SAP, b.ExactSAP = oracle.ExactBound(opt.Weight()), true
		}
		if sel, err := exact.SolveUFPP(in, exact.Options{MaxNodes: exactNodeBudget}); err == nil {
			b.UFPP, b.ExactUFPP = oracle.ExactBound(model.WeightOf(sel)), true
		}
	}
	if !b.ExactSAP {
		if lpErr != nil {
			return b, lpErr
		}
		b.SAP = lpBound
	}
	if !b.ExactUFPP {
		if lpErr != nil {
			return b, lpErr
		}
		b.UFPP = lpBound
	}
	// Cross-bound consistency: contiguity can only cost weight, and the LP
	// dominates both optima.
	if b.ExactSAP && b.ExactUFPP && b.SAP.Value > b.UFPP.Value {
		return b, fmt.Errorf("SAP optimum %v exceeds UFPP optimum %v", b.SAP, b.UFPP)
	}
	if b.ExactSAP && lpErr == nil && b.SAP.Value > lpBound.Value+1e-6*(1+lpBound.Value) {
		return b, fmt.Errorf("SAP optimum %v exceeds LP bound %v", b.SAP, lpBound)
	}
	return b, nil
}

// RunSAPMatrix runs every SAP solver on every case: oracle feasibility,
// weight ≤ bound, and — when the bound is exact — the per-theorem ratio.
func RunSAPMatrix(t testing.TB, cases []Case, solvers []SAPSolver) {
	for _, c := range cases {
		b, err := ComputeBounds(c.In)
		if err != nil {
			t.Errorf("%s [replay: %s]: bounds: %v", c.Name, c.Replay, err)
			continue
		}
		for _, s := range solvers {
			sol, err := s.Solve(c.In)
			if err != nil {
				t.Errorf("%s/%s [replay: %s]: solve: %v", c.Name, s.Name, c.Replay, err)
				continue
			}
			if sol == nil {
				continue // solver not applicable at this size
			}
			if err := oracle.CheckSAP(c.In, sol); err != nil {
				t.Errorf("%s/%s [replay: %s]: %v", c.Name, s.Name, c.Replay, err)
				continue
			}
			w := sol.Weight()
			if err := oracle.CheckUpper(w, b.SAP); err != nil {
				t.Errorf("%s/%s [replay: %s]: %v", c.Name, s.Name, c.Replay, err)
			}
			if f := s.Factor(c.In); f > 0 && b.ExactSAP {
				if err := oracle.CheckRatio(w, f, b.SAP); err != nil {
					t.Errorf("%s/%s [replay: %s]: %v", c.Name, s.Name, c.Replay, err)
				}
			}
		}
	}
}

// RunUFPPMatrix mirrors RunSAPMatrix for the UFPP solvers.
func RunUFPPMatrix(t testing.TB, cases []Case, solvers []UFPPSolver) {
	for _, c := range cases {
		b, err := ComputeBounds(c.In)
		if err != nil {
			t.Errorf("%s [replay: %s]: bounds: %v", c.Name, c.Replay, err)
			continue
		}
		for _, s := range solvers {
			sel, err := s.Solve(c.In)
			if err != nil {
				t.Errorf("%s/%s [replay: %s]: solve: %v", c.Name, s.Name, c.Replay, err)
				continue
			}
			if sel == nil {
				continue
			}
			if err := oracle.CheckUFPP(c.In, sel); err != nil {
				t.Errorf("%s/%s [replay: %s]: %v", c.Name, s.Name, c.Replay, err)
				continue
			}
			w := model.WeightOf(sel)
			if err := oracle.CheckUpper(w, b.UFPP); err != nil {
				t.Errorf("%s/%s [replay: %s]: %v", c.Name, s.Name, c.Replay, err)
			}
			// The path DP is exact: with an exact reference it must match.
			if s.Name == "exact/path-dp" && b.ExactUFPP {
				if err := oracle.CheckRatio(w, 1, b.UFPP); err != nil {
					t.Errorf("%s/%s [replay: %s]: %v", c.Name, s.Name, c.Replay, err)
				}
			}
		}
	}
}

// RingCase is one ring cell: instance plus replay line.
type RingCase struct {
	Name   string
	Replay string
	Ring   *model.RingInstance
}

// RingCases returns seeded ring instances small enough for the exact ring
// reference.
func RingCases() []RingCase {
	var cases []RingCase
	for i, seed := range []int64{701, 702, 703, 704, 705, 706} {
		edges := 4 + i%3
		tasks := 5 + i%3
		cases = append(cases, RingCase{
			Name:   fmt.Sprintf("ring-%d", seed),
			Replay: fmt.Sprintf("gen.Ring(%d, %d, %d, 8, 33)", seed, edges, tasks),
			Ring:   gen.Ring(seed, edges, tasks, 8, 33),
		})
	}
	return cases
}

// RunRingMatrix cross-checks the ring approximation against the exact ring
// reference: both oracle-feasible, approximation never above the optimum,
// ratio within Theorem 5's 10+ε, and — across the whole suite — both arc
// orientations exercised by the solutions.
func RunRingMatrix(t testing.TB, cases []RingCase) {
	usedOrientation := map[model.Orientation]bool{}
	for _, c := range cases {
		// Ring exact branches on each task's orientation as well as on the
		// next task, so it gets a larger budget than exactNodeBudget.
		opt, err := exact.SolveRingSAP(c.Ring, exact.Options{MaxNodes: 30_000_000})
		if err != nil {
			t.Errorf("%s [replay: %s]: exact: %v", c.Name, c.Replay, err)
			continue
		}
		if err := oracle.CheckRing(c.Ring, opt); err != nil {
			t.Errorf("%s [replay: %s]: exact solution: %v", c.Name, c.Replay, err)
		}
		res, err := ringsap.Solve(c.Ring, ringsap.Params{})
		if err != nil {
			t.Errorf("%s [replay: %s]: ringsap: %v", c.Name, c.Replay, err)
			continue
		}
		if err := oracle.CheckRing(c.Ring, res.Solution); err != nil {
			t.Errorf("%s [replay: %s]: %v", c.Name, c.Replay, err)
			continue
		}
		b := oracle.ExactBound(opt.Weight())
		if err := oracle.CheckUpper(res.Solution.Weight(), b); err != nil {
			t.Errorf("%s [replay: %s]: %v", c.Name, c.Replay, err)
		}
		// Theorem 5: 10+ε with the suite's ε = 0.5.
		if err := oracle.CheckRatio(res.Solution.Weight(), 10.5, b); err != nil {
			t.Errorf("%s [replay: %s]: %v", c.Name, c.Replay, err)
		}
		for _, p := range opt.Items {
			usedOrientation[p.Orientation] = true
		}
		for _, p := range res.Solution.Items {
			usedOrientation[p.Orientation] = true
		}
	}
	if !usedOrientation[model.Clockwise] || !usedOrientation[model.CounterClockwise] {
		t.Errorf("ring matrix exercised orientations %v — want both cw and ccw", usedOrientation)
	}
}
