// Command sapsolve reads a SAP instance (JSON, as written by sapgen) from a
// file or stdin and solves it with the selected algorithm, printing the
// schedule, its weight, and optional diagnostics.
//
// Usage:
//
//	sapgen -family random | sapsolve -algo combined
//	sapsolve -algo exact -in inst.json -viz
//	sapsolve -algo ring -in ring.json
//
// Algorithms: combined (Theorem 4, default) | small (Theorem 1) |
// medium (Theorem 2) | large (Theorem 3) | exact (branch & bound) |
// ring (Theorem 5; requires a ring instance) | stretch (the conclusion's
// min-stretch DSA extension: packs ALL tasks within ρ·c for minimal ρ) |
// ufpp (the Bonsma-style combined UFPP pipeline — no contiguity).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"sapalloc/internal/core"
	"sapalloc/internal/exact"
	"sapalloc/internal/largesap"
	"sapalloc/internal/lp"
	"sapalloc/internal/mediumsap"
	"sapalloc/internal/model"
	"sapalloc/internal/obscli"
	"sapalloc/internal/ringsap"
	"sapalloc/internal/saperr"
	"sapalloc/internal/shard"
	"sapalloc/internal/smallsap"
	"sapalloc/internal/stretch"
	"sapalloc/internal/ufppfull"
	"sapalloc/internal/viz"
	"sapalloc/internal/window"
)

func main() {
	var (
		algo    = flag.String("algo", "combined", "algorithm: combined | small | medium | large | exact | ring | stretch | ufpp | window")
		inPath  = flag.String("in", "-", "input instance path ('-' for stdin)")
		eps     = flag.Float64("eps", 0.5, "ε for the approximation guarantees")
		showViz = flag.Bool("viz", false, "render the schedule as ASCII art")
		outJSON = flag.Bool("json", false, "emit the solution as JSON instead of text")
		improve = flag.Bool("improve", false, "post-optimise the schedule (gravity + greedy insertion)")
		diag    = flag.Bool("diag", false, "print per-arm and per-class diagnostics (combined algorithm only)")
		workers = flag.Int("workers", 0, "goroutine bound for the parallel solvers (0 = GOMAXPROCS, 1 = sequential; output is identical either way)")
		shards  = flag.Bool("shards", true, "decompose at zero-load cut edges and solve the shards in parallel (combined algorithm only; falls through when no cut exists)")
		timeout = flag.Duration("timeout", 0, "wall-clock budget for the solve (0 = none); on expiry the best solution among completed arms is returned, or a typed error and exit 1 when nothing completed")
	)
	obsFlags := obscli.Register(flag.CommandLine)
	flag.Parse()
	stopObs, err := obsFlags.Start("sapsolve")
	if err != nil {
		fatalf("%v", err)
	}
	defer stopObs()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	r, err := openInput(*inPath)
	if err != nil {
		fatalf("%v", err)
	}
	defer r.Close()

	if *algo == "ring" {
		solveRing(ctx, r, *eps, *workers, *outJSON)
		return
	}

	if *algo == "window" {
		win, err := window.ReadJSON(r)
		if err != nil {
			fatalf("%v", err)
		}
		label := "windowed exact"
		sol, err := window.SolveExact(win, window.Options{})
		switch {
		case errors.Is(err, window.ErrTooLarge):
			sol = window.Greedy(win)
			label = "windowed greedy"
		case err != nil && !errors.Is(err, window.ErrBudget):
			fatalf("%v", err)
		}
		if err := window.Valid(win, sol); err != nil {
			fatalf("internal error: infeasible windowed solution: %v", err)
		}
		fmt.Printf("algorithm: %s\n", label)
		fmt.Printf("scheduled %d/%d tasks, weight %d\n", sol.Len(), len(win.Tasks), sol.Weight())
		for _, p := range sol.Items {
			fmt.Printf("  task %d  days [%d,%d)  height %d  weight %d\n",
				p.Task.ID, p.Start, p.End(), p.Height, p.Task.Weight)
		}
		return
	}

	in, err := model.ReadInstanceJSON(r)
	if err != nil {
		fatalf("%v", err)
	}

	if *algo == "ufpp" {
		res, err := ufppfull.SolveCtx(ctx, in, ufppfull.Params{Eps: *eps, Workers: *workers})
		if err != nil {
			fatalf("%v", err)
		}
		if err := model.ValidUFPP(in, res.Tasks); err != nil {
			fatalf("internal error: infeasible UFPP solution: %v", err)
		}
		fmt.Printf("algorithm: combined UFPP (Bonsma-style), winner: %s [small=%d medium=%d large=%d]\n",
			res.Winner, res.SmallWeight, res.MediumWeight, res.LargeWeight)
		fmt.Printf("selected %d/%d tasks, weight %d/%d (no heights — UFPP drops the contiguity constraint)\n",
			len(res.Tasks), len(in.Tasks), model.WeightOf(res.Tasks), in.TotalWeight())
		return
	}

	if *algo == "stretch" {
		res, err := stretch.MinStretch(in)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("algorithm: min-stretch DSA (conclusion's extension)\n")
		fmt.Printf("stretch ρ = %.4f (certified lower bound %.4f); all %d tasks packed\n",
			res.Rho(), res.LowerBoundRho(), res.Solution.Len())
		if *outJSON {
			if err := res.Solution.WriteJSON(os.Stdout); err != nil {
				fatalf("%v", err)
			}
		}
		return
	}

	var sol *model.Solution
	var label string
	switch *algo {
	case "combined":
		res, err := core.SolveCtx(ctx, in, core.Params{
			Eps: *eps, Workers: *workers, Deadline: *timeout,
			Shard: shard.Options{Disable: !*shards},
		})
		if err != nil {
			fatalf("%v", err)
		}
		sol = res.Solution
		label = fmt.Sprintf("combined (9+ε), winner: %s [small=%d medium=%d large=%d]",
			res.Winner, res.SmallWeight, res.MediumWeight, res.LargeWeight)
		if res.Report != nil && res.Report.Degraded {
			label += " [degraded — see report]"
		}
		if obsFlags.Metrics {
			// The LP optimum upper-bounds OPT_SAP (the paper's Theorem 1
			// accounting), so achieved/LP is a certified lower bound on the
			// realised approximation quality of this run.
			lpBound := 0.0
			if _, lpOpt, lpErr := lp.UFPPFractional(in); lpErr == nil {
				lpBound = lpOpt
			}
			obscli.PrintArmBreakdown(os.Stderr, res.Winner.String(), sol.Weight(), lpBound)
		}
		if *diag {
			fmt.Printf("partition: %d small / %d medium / %d large tasks\n",
				res.NumSmall, res.NumMedium, res.NumLarge)
			if res.Report != nil {
				fmt.Printf("report: %s\n", res.Report)
			}
			if res.Shards != nil {
				fmt.Printf("shards: %s\n", res.Shards)
			}
			if res.SmallDetail != nil {
				for _, c := range res.SmallDetail.Classes {
					fmt.Printf("  strip class t=%d: %d tasks, UFPP weight %d, LP bound %.1f, retained %d\n",
						c.T, c.Tasks, c.UFPPWeight, c.LPBound, c.RetainedWeight)
				}
			}
			if res.MediumDetail != nil {
				ks := make([]int, 0, len(res.MediumDetail.Classes))
				for k := range res.MediumDetail.Classes {
					ks = append(ks, k)
				}
				sort.Ints(ks)
				for _, k := range ks {
					fmt.Printf("  medium class k=%d: elevated weight %d\n", k, res.MediumDetail.Classes[k])
				}
				fmt.Printf("  medium residue r*=%d (ℓ=%d, q=%d)\n",
					res.MediumDetail.Residue, res.MediumDetail.Ell, res.MediumDetail.Q)
			}
		}
	case "small":
		res, err := smallsap.SolveCtx(ctx, in, smallsap.Params{Workers: *workers})
		if err != nil {
			fatalf("%v", err)
		}
		sol = res.Solution
		label = fmt.Sprintf("strip-pack (4+ε), LP bound total %.1f", res.LPBoundTotal)
	case "medium":
		res, err := mediumsap.SolveCtx(ctx, in, mediumsap.Params{Eps: *eps, Workers: *workers})
		if err != nil {
			fatalf("%v", err)
		}
		sol = res.Solution
		label = fmt.Sprintf("almost-uniform (2+ε), residue r*=%d, ℓ=%d", res.Residue, res.Ell)
	case "large":
		s, err := largesap.SolveCtx(ctx, in, largesap.Options{})
		if err != nil {
			fatalf("%v", err)
		}
		sol = s
		label = "rectangle packing (2k−1)"
	case "exact":
		s, err := exact.SolveSAPCtx(ctx, in, exact.Options{})
		if err != nil && !errors.Is(err, exact.ErrBudget) && !(saperr.IsCancelled(err) && s != nil) {
			fatalf("%v", err)
		}
		sol = s
		label = "exact branch & bound"
		if errors.Is(err, exact.ErrBudget) {
			label += " (budget exhausted — incumbent shown)"
		} else if saperr.IsCancelled(err) {
			label += " (timeout — incumbent shown)"
		}
	default:
		fatalf("unknown algorithm %q", *algo)
	}

	if *improve {
		before := sol.Weight()
		sol = core.Improve(in, sol)
		label += fmt.Sprintf("; improved %d → %d", before, sol.Weight())
	}
	if err := model.ValidSAP(in, sol); err != nil {
		fatalf("internal error: produced infeasible solution: %v", err)
	}
	if *outJSON {
		if err := sol.WriteJSON(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	fmt.Printf("algorithm: %s\n", label)
	fmt.Printf("%s\n", viz.Summary(in, sol))
	fmt.Print(viz.Legend(in, sol))
	if *showViz {
		fmt.Print(viz.RenderSolution(in, sol, viz.Options{}))
	}
}

func solveRing(ctx context.Context, r io.Reader, eps float64, workers int, outJSON bool) {
	ring, err := model.ReadRingJSON(r)
	if err != nil {
		fatalf("%v", err)
	}
	res, err := ringsap.SolveCtx(ctx, ring, ringsap.Params{Eps: eps, Workers: workers})
	if err != nil {
		fatalf("%v", err)
	}
	if res.Degraded {
		fmt.Fprintf(os.Stderr, "sapsolve: warning: an arm was cancelled or failed; the (10+ε) bound does not cover this run\n")
	}
	if err := model.ValidRingSAP(ring, res.Solution); err != nil {
		fatalf("internal error: infeasible ring solution: %v", err)
	}
	if outJSON {
		fmt.Printf("{\"weight\": %d, \"winner\": %q, \"cut_edge\": %d}\n",
			res.Solution.Weight(), res.Winner.String(), res.CutEdge)
		return
	}
	fmt.Printf("algorithm: ring (10+ε), winner: %s, cut edge: %d\n", res.Winner, res.CutEdge)
	fmt.Printf("scheduled %d/%d tasks, weight %d\n", res.Solution.Len(), len(ring.Tasks), res.Solution.Weight())
	for _, p := range res.Solution.Items {
		fmt.Printf("  task %d  %s  height %d  weight %d\n", p.Task.ID, p.Orientation, p.Height, p.Task.Weight)
	}
}

func openInput(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sapsolve: "+format+"\n", args...)
	os.Exit(1)
}
