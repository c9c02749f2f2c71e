// Command sapstress soak-tests the library: for a wall-clock budget it
// generates randomized workloads and cross-checks every pipeline invariant
// the test suite asserts, but over an unbounded instance stream —
// feasibility of all solvers, agreement of the two independent exact
// engines, LP upper-bound dominance, and gravity/validator consistency.
// Any violation aborts with a reproducer seed.
//
// Usage:
//
//	sapstress -duration 30s -workers 4
//
// With -sessions, cases instead churn the incremental session engine: each
// case opens a session over a random archipelago, drives a seeded stream of
// add/remove deltas, and after every delta cross-checks the maintained
// allocation for feasibility and byte-identity against a cold solve of the
// current task set. The periodic summary grows a session: section.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sapalloc/internal/chendp"
	"sapalloc/internal/core"
	"sapalloc/internal/dsa"
	"sapalloc/internal/exact"
	"sapalloc/internal/gen"
	"sapalloc/internal/lp"
	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/obscli"
	"sapalloc/internal/par"
	"sapalloc/internal/session"
)

func main() {
	var (
		duration = flag.Duration("duration", 15*time.Second, "wall-clock soak budget")
		workers  = flag.Int("workers", 0, "parallel checkers (0 = GOMAXPROCS)")
		seed     = flag.Int64("seed", time.Now().UnixNano(), "base seed (printed for reproduction)")
		timeout  = flag.Duration("timeout", 0, "per-case solve deadline (0 = none); degraded-but-feasible results pass, degradation-to-nothing is a failure")
		interval = flag.Duration("metrics-interval", 5*time.Second, "with -metrics: period of the one-line metrics summary")
		sessions = flag.Bool("sessions", false, "churn mode: each case drives an incremental session through seeded deltas, cross-checking every state against a cold solve")
	)
	obsFlags := obscli.Register(flag.CommandLine)
	flag.Parse()
	stopObs, err := obsFlags.Start("sapstress")
	if err != nil {
		log.Fatalf("sapstress: %v", err)
	}
	defer stopObs()
	fmt.Printf("sapstress: base seed %d, budget %s\n", *seed, *duration)

	// Periodic one-line summary so long soaks show forward progress and
	// counter drift without waiting for the exit dump.
	if obsFlags.Metrics && *interval > 0 {
		ticker := time.NewTicker(*interval)
		defer ticker.Stop()
		tickDone := make(chan struct{})
		defer close(tickDone)
		go func() {
			for {
				select {
				case <-ticker.C:
					line := obs.Summary()
					if *sessions {
						line += " " + obs.SessionSummary()
					}
					fmt.Fprintf(os.Stderr, "sapstress: %s\n", line)
				case <-tickDone:
					return
				}
			}
		}()
	}

	deadline := time.Now().Add(*duration)
	var iterations, failures int64
	var mu sync.Mutex
	firstFailure := ""

	check := checkOne
	if *sessions {
		check = checkSessionChurn
	}
	w := par.Workers(*workers, 1<<30)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := int64(0); time.Now().Before(deadline); i++ {
				// Disjoint per-worker strides: worker k draws the seeds
				// ≡ k (mod w), so no two workers ever re-check the same
				// case no matter how long the soak runs. (The old
				// worker*1_000_003 offsets collided once any worker
				// passed 1,000,003 iterations.) The printed reproducer
				// seed is caseSeed itself, so replay stays exact.
				caseSeed := *seed + i*int64(w) + int64(worker)
				if msg := check(caseSeed, *timeout); msg != "" {
					atomic.AddInt64(&failures, 1)
					mu.Lock()
					if firstFailure == "" {
						firstFailure = fmt.Sprintf("seed %d: %s", caseSeed, msg)
					}
					mu.Unlock()
					return
				}
				atomic.AddInt64(&iterations, 1)
			}
		}(g)
	}
	wg.Wait()
	fmt.Printf("sapstress: %d cases checked, %d failures\n", iterations, failures)
	if failures > 0 {
		log.Printf("FIRST FAILURE: %s", firstFailure)
		os.Exit(1)
	}
}

// checkSessionChurn soaks the incremental session engine: one session per
// case, a seeded stream of add/remove deltas over an archipelago pool, and
// after every delta the maintained allocation is cross-checked for
// feasibility and byte-identity against a cold solve of the current task
// set — the same invariant internal/difftest pins, over an unbounded case
// stream.
func checkSessionChurn(seed int64, timeout time.Duration) string {
	r := rand.New(rand.NewSource(seed))
	pool := gen.Archipelago(gen.ArchipelagoConfig{
		Seed:           seed,
		Islands:        2 + r.Intn(4),
		IslandEdges:    1 + r.Intn(6),
		GapEdges:       r.Intn(3),
		TasksPerIsland: 1 + r.Intn(10),
		CapLo:          16, CapHi: 65,
		Class: gen.Class(r.Intn(4)),
	})
	params := core.Params{Exact: exact.Options{MaxNodes: 200_000}}
	sess, err := session.New(pool.Capacity, session.Options{Params: params})
	if err != nil {
		return fmt.Sprintf("session.New: %v", err)
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	inSet := make(map[int]bool)
	for step := 0; step < 6; step++ {
		var d session.Delta
		for _, tk := range pool.Tasks {
			if inSet[tk.ID] {
				if r.Intn(3) == 0 {
					d.Remove = append(d.Remove, tk.ID)
				}
			} else if r.Intn(2) == 0 {
				d.Add = append(d.Add, tk)
			}
		}
		res, err := sess.Apply(ctx, d)
		if err != nil {
			return fmt.Sprintf("session delta %d: %v", step, err)
		}
		for _, id := range d.Remove {
			delete(inSet, id)
		}
		for _, tk := range d.Add {
			inSet[tk.ID] = true
		}
		cur := &model.Instance{Capacity: pool.Capacity, Tasks: sess.Tasks()}
		if err := model.ValidSAP(cur, res.Solution); err != nil {
			return fmt.Sprintf("session delta %d: infeasible allocation: %v", step, err)
		}
		if !res.Full && res.Resolved+res.Reused != res.Shards {
			return fmt.Sprintf("session delta %d: shard accounting %d+%d != %d", step, res.Resolved, res.Reused, res.Shards)
		}
		cold, err := core.SolveCtx(ctx, cur, params)
		if err != nil {
			return fmt.Sprintf("session delta %d: cold reference: %v", step, err)
		}
		if cold.Solution.Len() != res.Solution.Len() || cold.Solution.Weight() != res.Weight {
			return fmt.Sprintf("session delta %d: incremental (w=%d n=%d) != cold (w=%d n=%d)",
				step, res.Weight, res.Solution.Len(), cold.Solution.Weight(), cold.Solution.Len())
		}
		for i := range cold.Solution.Items {
			if cold.Solution.Items[i] != res.Solution.Items[i] {
				return fmt.Sprintf("session delta %d: allocation diverges from cold solve at item %d", step, i)
			}
		}
	}
	return ""
}

// checkOne runs every invariant on one randomized case; returns "" on
// success or a description of the first violation. A non-zero timeout
// bounds the combined solve: degraded-but-feasible results still pass every
// downstream invariant, and degradation-to-nothing (a typed error with no
// solution) counts as a failure so the soak flags hangs and dead arms.
func checkOne(seed int64, timeout time.Duration) string {
	r := rand.New(rand.NewSource(seed))
	in := gen.Random(gen.Config{
		Seed:  seed,
		Edges: 2 + r.Intn(8),
		Tasks: 1 + r.Intn(16),
		CapLo: 4 + r.Int63n(28),
		CapHi: 33 + r.Int63n(96),
		Class: gen.Class(r.Intn(4)),
	})

	// 1. Combined pipeline feasibility + LP dominance.
	params := core.Params{Exact: exact.Options{MaxNodes: 200_000}, Deadline: timeout}
	res, err := core.SolveCtx(context.Background(), in, params)
	if err != nil {
		return fmt.Sprintf("core.SolveCtx (degradation-to-nothing): %v", err)
	}
	if err := model.ValidSAP(in, res.Solution); err != nil {
		return fmt.Sprintf("combined infeasible: %v", err)
	}
	_, lpOpt, err := lp.UFPPFractional(in)
	if err != nil {
		return fmt.Sprintf("lp: %v", err)
	}
	if float64(res.Solution.Weight()) > lpOpt+1e-6*(1+lpOpt) {
		return fmt.Sprintf("weight %d above LP bound %g", res.Solution.Weight(), lpOpt)
	}

	// 2. Gravity preserves everything.
	g := dsa.Gravity(res.Solution)
	if err := model.ValidSAP(in, g); err != nil {
		return fmt.Sprintf("gravity infeasible: %v", err)
	}
	if g.Weight() != res.Solution.Weight() {
		return "gravity changed weight"
	}
	if !dsa.IsGrounded(g) {
		return "gravity output not grounded"
	}

	// 3. On small uniform sub-cases, the two exact engines agree.
	if len(in.Tasks) <= 9 {
		k := int64(2 + r.Intn(5))
		u := gen.Uniform(seed, in.Edges(), len(in.Tasks), k, gen.Mixed)
		for j := range u.Tasks {
			if u.Tasks[j].Demand > k {
				u.Tasks[j].Demand = 1 + u.Tasks[j].Demand%k
			}
		}
		dp, err := chendp.Solve(u, chendp.Options{})
		if err != nil {
			return fmt.Sprintf("chendp: %v", err)
		}
		bb, err := exact.SolveSAP(u, exact.Options{})
		if err != nil {
			return fmt.Sprintf("exact: %v", err)
		}
		if dp.Weight() != bb.Weight() {
			return fmt.Sprintf("exact engines disagree: DP %d vs B&B %d", dp.Weight(), bb.Weight())
		}
		// And UFPP: path DP vs branch & bound.
		udp, err := exact.SolveUFPPPathDP(in, 0)
		if err == nil {
			ubb, err := exact.SolveUFPP(in, exact.Options{})
			if err != nil {
				return fmt.Sprintf("ufpp bb: %v", err)
			}
			if model.WeightOf(udp) != model.WeightOf(ubb) {
				return fmt.Sprintf("UFPP engines disagree: DP %d vs B&B %d", model.WeightOf(udp), model.WeightOf(ubb))
			}
		}
	}
	return ""
}
