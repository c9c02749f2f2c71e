package difftest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sapalloc/internal/core"
	"sapalloc/internal/exact"
	"sapalloc/internal/faultinject"
	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/saperr"
	"sapalloc/internal/session"
	"sapalloc/internal/window"
)

// sessionColdSolve is the byte-identity reference: a fresh solve of the
// session's current task set, in the session's canonical (ID-sorted) order,
// with the same worker count.
func sessionColdSolve(t *testing.T, capacity []int64, tasks []model.Task, workers int) *model.Solution {
	t.Helper()
	in := &model.Instance{Capacity: capacity, Tasks: tasks}
	res, err := core.SolveCtx(context.Background(), in, core.Params{Workers: workers})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	return res.Solution
}

func sessionSameItems(a, b *model.Solution) bool {
	if a.Len() != b.Len() {
		return false
	}
	if a.Len() == 0 {
		return true
	}
	return reflect.DeepEqual(a.Items, b.Items)
}

// TestSessionChurnMatchesCold is the tentpole invariant: seeded add/remove
// churn over decomposing (archipelago) and dense (no zero-load cut) pools,
// at workers 1/2/8 — after every delta the incrementally maintained
// allocation is byte-identical to a cold core.SolveCtx of the current task
// set.
func TestSessionChurnMatchesCold(t *testing.T) {
	pools := []struct {
		name string
		in   *model.Instance
	}{
		{"archipelago4", gen.Archipelago(gen.ArchipelagoConfig{
			Seed: 901, Islands: 4, IslandEdges: 5, GapEdges: 2,
			TasksPerIsland: 8, CapLo: 16, CapHi: 65, Class: gen.Mixed})},
		{"archipelago6small", gen.Archipelago(gen.ArchipelagoConfig{
			Seed: 902, Islands: 6, IslandEdges: 4, GapEdges: 1,
			TasksPerIsland: 6, CapLo: 32, CapHi: 129, Class: gen.Small})},
		{"dense", gen.Random(gen.Config{
			Seed: 903, Edges: 6, Tasks: 18, CapLo: 16, CapHi: 65, Class: gen.Mixed})},
	}
	for pi, pool := range pools {
		for _, w := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", pool.name, w), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(1000*pi + w)))
				sess, err := session.New(pool.in.Capacity, session.Options{Params: core.Params{Workers: w}})
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				inSet := make(map[int]bool)
				var init []model.Task
				for _, tk := range pool.in.Tasks {
					if r.Intn(2) == 0 {
						inSet[tk.ID] = true
						init = append(init, tk)
					}
				}
				if _, err := sess.Apply(ctx, session.Delta{Add: init}); err != nil {
					t.Fatalf("initial delta: %v", err)
				}
				incremental, reused := 0, 0
				for step := 0; step < 12; step++ {
					var present, absent []model.Task
					for _, tk := range pool.in.Tasks {
						if inSet[tk.ID] {
							present = append(present, tk)
						} else {
							absent = append(absent, tk)
						}
					}
					var d session.Delta
					for k := 0; k < 1+r.Intn(2) && len(present) > 0; k++ {
						i := r.Intn(len(present))
						d.Remove = append(d.Remove, present[i].ID)
						present = append(present[:i], present[i+1:]...)
					}
					for k := 0; k < 1+r.Intn(2) && len(absent) > 0; k++ {
						i := r.Intn(len(absent))
						d.Add = append(d.Add, absent[i])
						absent = append(absent[:i], absent[i+1:]...)
					}
					res, err := sess.Apply(ctx, d)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for _, id := range d.Remove {
						delete(inSet, id)
					}
					for _, tk := range d.Add {
						inSet[tk.ID] = true
					}
					if !res.Full {
						incremental++
						reused += res.Reused
						if res.Resolved+res.Reused != res.Shards {
							t.Fatalf("step %d: shard accounting %d+%d != %d", step, res.Resolved, res.Reused, res.Shards)
						}
					}
					tasks := sess.Tasks()
					if len(tasks) != len(inSet) {
						t.Fatalf("step %d: session holds %d tasks, want %d", step, len(tasks), len(inSet))
					}
					cold := sessionColdSolve(t, pool.in.Capacity, tasks, w)
					if !sessionSameItems(res.Solution, cold) {
						t.Fatalf("step %d: incremental allocation is not byte-identical to the cold solve", step)
					}
					cur := &model.Instance{Capacity: pool.in.Capacity, Tasks: tasks}
					if err := model.ValidSAP(cur, res.Solution); err != nil {
						t.Fatalf("step %d: infeasible allocation: %v", step, err)
					}
				}
				if pool.name != "dense" && incremental == 0 {
					t.Error("archipelago churn never took the incremental path")
				}
				if pool.name != "dense" && reused == 0 {
					t.Error("archipelago churn never reused a shard")
				}
			})
		}
	}
}

// TestSessionCancelMidDelta pins delta atomicity under cancellation: a
// fault-injected cancel during a shard re-solve fails the delta with a typed
// cancellation error, the session state (tasks AND allocation) is exactly
// the pre-delta state, and the retried delta succeeds and matches cold.
func TestSessionCancelMidDelta(t *testing.T) {
	pool := gen.Archipelago(gen.ArchipelagoConfig{
		Seed: 905, Islands: 4, IslandEdges: 5, GapEdges: 2,
		TasksPerIsland: 8, CapLo: 16, CapHi: 65, Class: gen.Mixed})
	sess, err := session.New(pool.Capacity, session.Options{Params: core.Params{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Apply(context.Background(), session.Delta{Add: pool.Tasks}); err != nil {
		t.Fatal(err)
	}
	before := sess.Solution()
	beforeTasks := sess.Tasks()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan := faultinject.NewPlan(faultinject.Injection{
		Site: "session/shard", Kind: faultinject.KindCancel, Once: true,
	})
	plan.SetCancel(cancel)
	deactivate := faultinject.Activate(plan)
	d := session.Delta{Remove: []int{pool.Tasks[0].ID}}
	_, err = sess.Apply(ctx, d)
	deactivate()
	if !saperr.IsCancelled(err) {
		t.Fatalf("cancelled delta: want typed cancellation, got %v", err)
	}
	if !reflect.DeepEqual(sess.Tasks(), beforeTasks) {
		t.Fatal("cancelled delta mutated the task set")
	}
	if sess.Solution() != before {
		t.Fatal("cancelled delta replaced the allocation")
	}

	// Retry on a fresh context: must succeed and match the cold solve.
	res, err := sess.Apply(context.Background(), d)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	cold := sessionColdSolve(t, pool.Capacity, sess.Tasks(), 2)
	if !sessionSameItems(res.Solution, cold) {
		t.Fatal("retried delta is not byte-identical to the cold solve")
	}
}

// TestWindowCancelMidSolve pins the window satellite: a fault-injected
// cancel at the B&B's masked check cadence stops the search with a typed
// cancellation error and a feasible incumbent.
func TestWindowCancelMidSolve(t *testing.T) {
	sap := gen.Random(gen.Config{Seed: 907, Edges: 6, Tasks: 14, CapLo: 8, CapHi: 33, Class: gen.Mixed})
	in := window.Widen(window.Fixed(sap), 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The window search runs on exact's branch-and-bound, whose node site
	// fires every 1024 nodes; its first hit lands mid-search.
	plan := faultinject.NewPlan(faultinject.Injection{
		Site: "exact/sap/node", Kind: faultinject.KindCancel, After: 0, Once: true,
	})
	plan.SetCancel(cancel)
	defer faultinject.Activate(plan)()
	sol, err := window.SolveExactCtx(ctx, in, window.Options{})
	if !saperr.IsCancelled(err) {
		t.Fatalf("want typed cancellation, got %v", err)
	}
	if sol == nil {
		t.Fatal("cancelled solve dropped the incumbent")
	}
	if verr := window.Valid(in, sol); verr != nil {
		t.Fatalf("cancelled incumbent infeasible: %v", verr)
	}
}

// TestWindowDegenerateMatchesSAP pins the zero-slack degeneracy: instances
// with Release+Length == Deadline have no start freedom, so the windowed
// exact solver must reproduce plain SAP — same optimum weight, every
// placement pinned at its task's fixed interval, and the height assignment
// feasible as a plain SAP solution.
func TestWindowDegenerateMatchesSAP(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		in := gen.Random(gen.Config{
			Seed: int64(4100 + trial), Edges: 2 + r.Intn(4), Tasks: 1 + r.Intn(8),
			CapLo: 4, CapHi: 33, Class: gen.Mixed,
		})
		win := window.Fixed(in)
		wsol, err := window.SolveExactCtx(context.Background(), win, window.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ssol, err := exact.SolveSAP(in, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if wsol.Weight() != ssol.Weight() {
			t.Fatalf("trial %d: windowed optimum %d != SAP optimum %d", trial, wsol.Weight(), ssol.Weight())
		}
		conv := &model.Solution{}
		for _, p := range wsol.Items {
			if p.Start != p.Task.Release {
				t.Fatalf("trial %d: zero-slack placement moved: task %d start %d != release %d",
					trial, p.Task.ID, p.Start, p.Task.Release)
			}
			mt, ok := in.TaskByID(p.Task.ID)
			if !ok {
				t.Fatalf("trial %d: placement for unknown task %d", trial, p.Task.ID)
			}
			conv.Items = append(conv.Items, model.Placement{Task: mt, Height: p.Height})
		}
		if err := model.ValidSAP(in, conv); err != nil {
			t.Fatalf("trial %d: converted solution infeasible as plain SAP: %v", trial, err)
		}
	}
}

// TestSessionFaultSites checks that the session fault sites are live and the
// engine degrades loudly, not silently: an injected error at the delta gate
// surfaces, and a panic inside a shard solve is contained into ErrInternal.
func TestSessionFaultSites(t *testing.T) {
	pool := gen.Archipelago(gen.ArchipelagoConfig{
		Seed: 906, Islands: 3, IslandEdges: 4, GapEdges: 2,
		TasksPerIsland: 5, CapLo: 16, CapHi: 65, Class: gen.Mixed})
	sess, err := session.New(pool.Capacity, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Apply(context.Background(), session.Delta{Add: pool.Tasks}); err != nil {
		t.Fatal(err)
	}
	d := session.Delta{Remove: []int{pool.Tasks[0].ID}}

	deactivate := faultinject.Activate(faultinject.NewPlan(faultinject.Injection{
		Site: "session/delta", Kind: faultinject.KindError, Once: true,
	}))
	_, err = sess.Apply(context.Background(), d)
	deactivate()
	if err == nil {
		t.Fatal("injected delta-gate error was swallowed")
	}

	deactivate = faultinject.Activate(faultinject.NewPlan(faultinject.Injection{
		Site: "session/shard", Kind: faultinject.KindPanic, Once: true,
	}))
	_, err = sess.Apply(context.Background(), d)
	deactivate()
	if !errors.Is(err, saperr.ErrInternal) {
		t.Fatalf("panicking shard solve: want contained ErrInternal, got %v", err)
	}

	// The session still works after both faults and matches cold.
	res, err := sess.Apply(context.Background(), d)
	if err != nil {
		t.Fatalf("post-fault delta: %v", err)
	}
	if !sessionSameItems(res.Solution, sessionColdSolve(t, pool.Capacity, sess.Tasks(), 0)) {
		t.Fatal("post-fault allocation differs from cold solve")
	}
}
