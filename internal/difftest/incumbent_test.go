package difftest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"testing"

	"sapalloc/internal/exact"
	"sapalloc/internal/gen"
	"sapalloc/internal/mediumsap"
	"sapalloc/internal/model"
	"sapalloc/internal/window"
)

// TestIncumbentGolden pins the answers the branch-and-bound returns when its
// node budget runs out. A truncated search returns its best incumbent so
// far, and which one that is depends on the greedy seed, the branching
// order, the bound and the node count; the serving path (the medium arm on
// dense paths) returns exactly these answers. Each digest covers every
// placement of every solve plus its error. A change to the search that is
// meant to alter truncated answers (a new pruning rule, a different
// branching order) must update the digests on purpose.
func TestIncumbentGolden(t *testing.T) {
	const (
		wantSAP    = "222505d6dea66f69c2043c62f0574faecd6e95047ac26da9c11e78b4f36455ca"
		wantWindow = "7df2a7bbb5a007a46b4deb209a3577a3adf3f0aaebd583bac5a4b41dc7bda514"
		wantMedium = "6a1d6ab66a76aabd37865791dd973b1b5c1757dfaf6a3775408318a0548f8edd"
		wantRing   = "e268c89a6ae2fb3a7931d94e18212e146d51e919203ac557185e9bc92c0242b3"
	)

	h := sha256.New()
	for seed := int64(1); seed <= 30; seed++ {
		cfg := gen.Config{Seed: seed, Edges: 8, Tasks: 18, MaxSpan: 5, Class: gen.Mixed}
		in := gen.Random(cfg)
		for _, budget := range []int64{50, 3000} {
			sol, err := exact.SolveSAP(in, exact.Options{MaxNodes: budget})
			if err != nil && !errors.Is(err, exact.ErrBudget) {
				t.Fatalf("[replay: %s] MaxNodes %d: %v", cfg.Replay(), budget, err)
			}
			fmt.Fprintf(h, "sap %d %d %v\n", seed, budget, err)
			hashPlacements(h, sol.Items)
		}
	}
	checkDigest(t, "exact.SolveSAP", h, wantSAP)

	h = sha256.New()
	for seed := int64(1); seed <= 30; seed++ {
		cfg := gen.Config{Seed: seed, Edges: 7, Tasks: 10, MaxSpan: 4, CapLo: 8, CapHi: 33, Class: gen.Mixed}
		in := window.Widen(window.Fixed(gen.Random(cfg)), 1+int(seed%3))
		for _, budget := range []int64{40, 1500} {
			sol, err := window.SolveExact(in, window.Options{MaxNodes: budget})
			if err != nil && !errors.Is(err, window.ErrBudget) {
				t.Fatalf("[replay: %s] MaxNodes %d: %v", cfg.Replay(), budget, err)
			}
			fmt.Fprintf(h, "window %d %d %v\n", seed, budget, err)
			for _, p := range sol.Items {
				fmt.Fprintf(h, "%d %d %d\n", p.Task.ID, p.Start, p.Height)
			}
		}
	}
	checkDigest(t, "window.SolveExact", h, wantWindow)

	// The medium arm on a cold-dense-shaped path. A tenth of the arm's
	// default per-class budget keeps the test quick under -race; the
	// answer (degraded, budget-truncated) is the same as at the default.
	h = sha256.New()
	cfg := gen.Config{Seed: 3, Edges: 24, Tasks: 56, MaxSpan: 8, Class: gen.Medium}
	p := mediumsap.Params{Workers: 1, Exact: exact.Options{MaxNodes: 50_000}}
	res, err := mediumsap.SolveCtx(context.Background(), gen.Random(cfg), p)
	if err != nil {
		t.Fatalf("[replay: %s] mediumsap: %v", cfg.Replay(), err)
	}
	fmt.Fprintf(h, "medium %d %v %v\n", res.Residue, res.Degraded, res.Classes)
	hashPlacements(h, res.Solution.Items)
	checkDigest(t, "mediumsap.SolveCtx", h, wantMedium)

	// Rings are the searcher's two-choice case: each task branches on its
	// orientation. Both budgets truncate most of these searches (26 and 22
	// of the 30); the rest finish and are pinned as proven optima.
	h = sha256.New()
	for seed := int64(1); seed <= 30; seed++ {
		ring := gen.Ring(seed, 8, 14, 8, 33)
		for _, budget := range []int64{60, 4000} {
			sol, err := exact.SolveRingSAP(ring, exact.Options{MaxNodes: budget})
			if err != nil && !errors.Is(err, exact.ErrBudget) {
				t.Fatalf("[replay: gen.Ring(%d, 8, 14, 8, 33)] MaxNodes %d: %v", seed, budget, err)
			}
			fmt.Fprintf(h, "ring %d %d %v\n", seed, budget, err)
			for _, p := range sol.Items {
				fmt.Fprintf(h, "%d %d %d %d %d %d %d\n", p.Task.ID, p.Task.Start, p.Task.End, p.Task.Demand, p.Task.Weight, p.Orientation, p.Height)
			}
		}
	}
	checkDigest(t, "exact.SolveRingSAP", h, wantRing)
}

func hashPlacements(h hash.Hash, items []model.Placement) {
	for _, p := range items {
		fmt.Fprintf(h, "%d %d %d %d %d %d\n", p.Task.ID, p.Task.Start, p.Task.End, p.Task.Demand, p.Task.Weight, p.Height)
	}
}

func checkDigest(t *testing.T, name string, h hash.Hash, want string) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%s incumbents digest %s, want %s", name, got, want)
	}
}
