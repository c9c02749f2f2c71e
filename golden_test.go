package sapalloc_test

// Golden regression tests: exact optima of the paper's figure instances and
// deterministic outputs of the pipelines on fixed seeds, pinned so that any
// future change to a solver that silently alters results fails loudly.
// (Exact optima are invariant truths of the instances; pipeline outputs are
// deterministic by design — per-trial RNGs and ordered merges.)

import (
	"testing"

	"sapalloc/internal/core"
	"sapalloc/internal/exact"
	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/oracle"
	"sapalloc/internal/ringsap"
	"sapalloc/internal/smallsap"
)

func TestGoldenExactOptima(t *testing.T) {
	cases := []struct {
		name      string
		in        *model.Instance
		sap, ufpp int64
	}{
		{"fig1a", gen.Fig1a(), 1, 2},
		{"fig1b", gen.Fig1b(), 6, 7},
		{"fig8", gen.Fig8(), 5, 5},
		{"mix1", gen.Random(gen.Config{Seed: 1001, Edges: 4, Tasks: 9, CapLo: 16, CapHi: 65, Class: gen.Mixed}), 337, 337},
		{"mix2", gen.Random(gen.Config{Seed: 1002, Edges: 5, Tasks: 10, CapLo: 16, CapHi: 65, Class: gen.Mixed}), 277, 277},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt, err := exact.SolveSAP(c.in, exact.Options{})
			if err != nil {
				t.Fatalf("%v", err)
			}
			if opt.Weight() != c.sap {
				t.Errorf("SAP OPT = %d, want %d", opt.Weight(), c.sap)
			}
			u, err := exact.SolveUFPP(c.in, exact.Options{})
			if err != nil {
				t.Fatalf("%v", err)
			}
			if model.WeightOf(u) != c.ufpp {
				t.Errorf("UFPP OPT = %d, want %d", model.WeightOf(u), c.ufpp)
			}
		})
	}
}

func TestGoldenPipelineOutputs(t *testing.T) {
	in := gen.Random(gen.Config{Seed: 2001, Edges: 10, Tasks: 80, CapLo: 256, CapHi: 1025, Class: gen.Small})
	sp, err := smallsap.Solve(in, smallsap.Params{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if sp.Solution.Weight() != 2170 {
		t.Errorf("strip-pack(seed 2001) = %d, want 2170", sp.Solution.Weight())
	}

	cb, err := core.Solve(gen.Random(gen.Config{Seed: 2002, Edges: 8, Tasks: 40, CapLo: 64, CapHi: 257, Class: gen.Mixed}), core.Params{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if cb.Solution.Weight() != 655 {
		t.Errorf("combined(seed 2002) = %d, want 655", cb.Solution.Weight())
	}

	ring := gen.Ring(2003, 6, 10, 16, 64)
	rr, err := ringsap.Solve(ring, ringsap.Params{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if rr.Solution.Weight() != 412 {
		t.Errorf("ring(seed 2003) = %d, want 412", rr.Solution.Weight())
	}
}

// TestGoldenRingOptima pins exact ring optima and the deterministic
// (10+ε)-pipeline outputs on fixed ring seeds, mirroring the path golden
// cases above. The exact values are invariant truths of the instances; the
// ringsap values are deterministic by design.
func TestGoldenRingOptima(t *testing.T) {
	cases := []struct {
		name          string
		seed          int64
		edges, tasks  int
		exact, approx int64
	}{
		{"ring901", 901, 4, 6, 337, 326},
		{"ring902", 902, 5, 7, 371, 346},
		{"ring903", 903, 6, 8, 313, 247},
		// 9–10-task rings: 2^n single-orientation searches, each with a
		// 1/2^n share of the 30M nodes, cannot prove them; one search
		// branching over orientations can. ring195's greedy seed already
		// schedules all 10 tasks, so the bound closes the search at once.
		{"ring195", 195, 4, 10, 446, 265},
		{"ring132", 132, 6, 10, 448, 224},
		{"ring145", 145, 4, 9, 349, 231},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ring := gen.Ring(c.seed, c.edges, c.tasks, 8, 33)
			opt, err := exact.SolveRingSAP(ring, exact.Options{MaxNodes: 30_000_000})
			if err != nil {
				t.Fatalf("%v", err)
			}
			if opt.Weight() != c.exact {
				t.Errorf("ring OPT = %d, want %d", opt.Weight(), c.exact)
			}
			if err := oracle.CheckRing(ring, opt); err != nil {
				t.Errorf("exact solution: %v", err)
			}
			res, err := ringsap.Solve(ring, ringsap.Params{})
			if err != nil {
				t.Fatalf("%v", err)
			}
			if res.Solution.Weight() != c.approx {
				t.Errorf("ringsap = %d, want %d", res.Solution.Weight(), c.approx)
			}
			if err := oracle.CheckRing(ring, res.Solution); err != nil {
				t.Errorf("ringsap solution: %v", err)
			}
		})
	}
}
