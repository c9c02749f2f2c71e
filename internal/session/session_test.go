package session

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"sapalloc/internal/core"
	"sapalloc/internal/exact"
	"sapalloc/internal/faultinject"
	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/saperr"
)

func coldSolve(t *testing.T, capacity []int64, tasks []model.Task) *model.Solution {
	t.Helper()
	in := &model.Instance{Capacity: capacity, Tasks: tasks}
	res, err := core.SolveCtx(context.Background(), in, core.Params{})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	return res.Solution
}

func sameItems(a, b *model.Solution) bool {
	if a.Len() != b.Len() {
		return false
	}
	if a.Len() == 0 {
		return true
	}
	return reflect.DeepEqual(a.Items, b.Items)
}

func archipelago(seed int64) *model.Instance {
	return gen.Archipelago(gen.ArchipelagoConfig{
		Seed: seed, Islands: 4, IslandEdges: 5, GapEdges: 2,
		TasksPerIsland: 8, CapLo: 16, CapHi: 65, Class: gen.Mixed,
	})
}

func TestSessionBasicChurn(t *testing.T) {
	pool := archipelago(71)
	sess, err := New(pool.Capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Empty session solves to an empty allocation.
	res, err := sess.Apply(ctx, Delta{})
	if err != nil {
		t.Fatalf("empty delta: %v", err)
	}
	if res.Solution.Len() != 0 || res.Weight != 0 {
		t.Fatalf("empty session has non-empty allocation: %+v", res)
	}

	// Load everything, drain one island, replace a task, drain to empty —
	// after each delta the allocation must match a cold solve.
	steps := []Delta{
		{Add: pool.Tasks},
		{Remove: []int{pool.Tasks[0].ID, pool.Tasks[1].ID}},
		{Add: []model.Task{pool.Tasks[0]}},
	}
	for i, d := range steps {
		res, err := sess.Apply(ctx, d)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		cold := coldSolve(t, pool.Capacity, sess.Tasks())
		if !sameItems(res.Solution, cold) {
			t.Fatalf("step %d: incremental allocation differs from cold solve", i)
		}
		if res.Weight != cold.Weight() {
			t.Fatalf("step %d: weight %d != cold %d", i, res.Weight, cold.Weight())
		}
		if !res.Full && res.Resolved+res.Reused != res.Shards {
			t.Fatalf("step %d: resolved %d + reused %d != shards %d", i, res.Resolved, res.Reused, res.Shards)
		}
	}

	// Replace a task in one delta (remove + add of the same ID).
	repl := pool.Tasks[2]
	repl.Weight++
	res, err = sess.Apply(ctx, Delta{Remove: []int{repl.ID}, Add: []model.Task{repl}})
	if err != nil {
		t.Fatalf("replace: %v", err)
	}
	if !sameItems(res.Solution, coldSolve(t, pool.Capacity, sess.Tasks())) {
		t.Fatal("replace: allocation differs from cold solve")
	}

	// Drain to empty.
	var all []int
	for _, tk := range sess.Tasks() {
		all = append(all, tk.ID)
	}
	res, err = sess.Apply(ctx, Delta{Remove: all})
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if res.Solution.Len() != 0 || sess.Len() != 0 {
		t.Fatalf("drained session not empty: %d items, %d tasks", res.Solution.Len(), sess.Len())
	}
}

func TestSessionIncrementalReuse(t *testing.T) {
	pool := archipelago(72)
	sess, err := New(pool.Capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Apply(ctx, Delta{Add: pool.Tasks}); err != nil {
		t.Fatal(err)
	}
	// Churning a single task dirties only its island: with 4 islands the
	// delta must reuse the other shards.
	tk := pool.Tasks[5]
	res, err := sess.Apply(ctx, Delta{Remove: []int{tk.ID}, Add: []model.Task{tk}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Full {
		t.Fatalf("single-task churn on an archipelago took the full path: %+v", res)
	}
	if res.Reused == 0 {
		t.Fatalf("single-task churn reused no shards: %+v", res)
	}
	if res.Resolved == 0 || res.Resolved+res.Reused != res.Shards {
		t.Fatalf("inconsistent shard accounting: %+v", res)
	}
	if !sameItems(res.Solution, coldSolve(t, pool.Capacity, sess.Tasks())) {
		t.Fatal("allocation differs from cold solve")
	}
}

func TestSessionDeltaValidation(t *testing.T) {
	pool := archipelago(73)
	sess, err := New(pool.Capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Apply(ctx, Delta{Add: pool.Tasks[:4]}); err != nil {
		t.Fatal(err)
	}
	before := sess.Solution()
	beforeTasks := sess.Tasks()

	bad := []Delta{
		{Remove: []int{999999}},                                                // unknown id
		{Remove: []int{pool.Tasks[0].ID, pool.Tasks[0].ID}},                    // duplicate removal
		{Add: []model.Task{pool.Tasks[0]}},                                     // already present
		{Add: []model.Task{pool.Tasks[9], pool.Tasks[9]}},                      // duplicate add
		{Add: []model.Task{{ID: 777, Start: 0, End: 1, Demand: 0, Weight: 1}}}, // invalid task
	}
	for i, d := range bad {
		if _, err := sess.Apply(ctx, d); !errors.Is(err, saperr.ErrInfeasibleInput) {
			t.Errorf("bad delta %d: want typed input error, got %v", i, err)
		}
	}
	// Failed deltas are atomic: nothing changed.
	if !reflect.DeepEqual(sess.Tasks(), beforeTasks) {
		t.Fatal("failed delta mutated the task set")
	}
	if sess.Solution() != before {
		t.Fatal("failed delta replaced the allocation")
	}

	// New/Create rejects an invalid capacity profile.
	if _, err := New([]int64{0}, Options{}); !errors.Is(err, saperr.ErrInfeasibleInput) {
		t.Errorf("invalid capacity: want typed input error, got %v", err)
	}
}

func TestSessionAtomicOnFault(t *testing.T) {
	pool := archipelago(74)
	sess, err := New(pool.Capacity, Options{Params: core.Params{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Apply(context.Background(), Delta{Add: pool.Tasks}); err != nil {
		t.Fatal(err)
	}
	before := sess.Solution()
	beforeTasks := sess.Tasks()
	d := Delta{Remove: []int{pool.Tasks[0].ID}}

	// A panic in a shard solve is contained, fails the delta, and rolls
	// back; the retry with the fault cleared succeeds.
	deactivate := faultinject.Activate(faultinject.NewPlan(faultinject.Injection{
		Site: "session/shard", Kind: faultinject.KindPanic, Once: true,
	}))
	_, err = sess.Apply(context.Background(), d)
	deactivate()
	if !errors.Is(err, saperr.ErrInternal) {
		t.Fatalf("panicking shard solve: want ErrInternal, got %v", err)
	}
	if !reflect.DeepEqual(sess.Tasks(), beforeTasks) || sess.Solution() != before {
		t.Fatal("failed delta was not rolled back")
	}
	if _, err := sess.Apply(context.Background(), d); err != nil {
		t.Fatalf("retry after fault: %v", err)
	}
	if !sameItems(sess.Solution(), coldSolve(t, pool.Capacity, sess.Tasks())) {
		t.Fatal("retry allocation differs from cold solve")
	}

	// An injected error at the delta gate fails before any mutation.
	beforeTasks = sess.Tasks()
	deactivate = faultinject.Activate(faultinject.NewPlan(faultinject.Injection{
		Site: "session/delta", Kind: faultinject.KindError, Once: true,
	}))
	_, err = sess.Apply(context.Background(), Delta{Add: []model.Task{pool.Tasks[0]}})
	deactivate()
	if err == nil {
		t.Fatal("injected delta-gate error was swallowed")
	}
	if !reflect.DeepEqual(sess.Tasks(), beforeTasks) {
		t.Fatal("failed delta-gate apply mutated the task set")
	}
}

// TestSessionAtomicOnInfeasible corrupts a cached shard solution so that
// the next delta stitches an infeasible allocation. The delta must fail
// with the typed internal error and leave the session as it was, so the
// same delta succeeds once the cached solution is repaired.
func TestSessionAtomicOnInfeasible(t *testing.T) {
	pool := archipelago(76)
	sess, err := New(pool.Capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Apply(ctx, Delta{Add: pool.Tasks}); err != nil {
		t.Fatal(err)
	}
	removed := pool.Tasks[0]
	var key spanKey
	var good *spanEntry
	for k, e := range sess.cache {
		if e.sol.Len() > 0 && (k.hi <= removed.Start || removed.End <= k.lo) {
			key, good = k, e
			break
		}
	}
	if good == nil {
		t.Fatal("no cached shard solution outside the delta's island")
	}
	bad := &spanEntry{tasks: good.tasks, sol: good.sol.Clone()}
	bad.sol.Items[0].Height = pool.Capacity[bad.sol.Items[0].Task.Start] // tops out above the edge's capacity
	sess.cache[key] = bad

	before, beforeTasks, beforeWeight := sess.Solution(), sess.Tasks(), sess.Weight()
	d := Delta{Remove: []int{removed.ID}}
	_, err = sess.Apply(ctx, d)
	if !errors.Is(err, saperr.ErrInternal) {
		t.Fatalf("infeasible allocation: want ErrInternal, got %v", err)
	}
	if sess.Solution() != before || sess.Weight() != beforeWeight || !reflect.DeepEqual(sess.Tasks(), beforeTasks) {
		t.Fatal("failed delta changed the allocation or the task set")
	}
	if _, ok := sess.byID[removed.ID]; !ok || sess.cache[key] != bad {
		t.Fatal("failed delta changed the task index or the shard cache")
	}

	sess.cache[key] = good
	res, err := sess.Apply(ctx, d)
	if err != nil {
		t.Fatalf("retry with the cache repaired: %v", err)
	}
	if !sameItems(res.Solution, coldSolve(t, pool.Capacity, sess.Tasks())) {
		t.Fatal("retry allocation differs from cold solve")
	}
}

func TestSessionFullOption(t *testing.T) {
	pool := archipelago(75)
	sess, err := New(pool.Capacity, Options{Full: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Apply(ctx, Delta{Add: pool.Tasks}); err != nil {
		t.Fatal(err)
	}
	tk := pool.Tasks[3]
	res, err := sess.Apply(ctx, Delta{Remove: []int{tk.ID}, Add: []model.Task{tk}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Full {
		t.Fatalf("Full option ignored: %+v", res)
	}
	if !sameItems(res.Solution, coldSolve(t, pool.Capacity, sess.Tasks())) {
		t.Fatal("full-mode allocation differs from cold solve")
	}
}

// Random churn against random membership: the engine must match cold solves
// across decomposing and non-decomposing intermediate states alike.
func TestSessionRandomChurn(t *testing.T) {
	r := rand.New(rand.NewSource(76))
	pool := gen.Random(gen.Config{Seed: 76, Edges: 8, Tasks: 24, CapLo: 8, CapHi: 65, Class: gen.Mixed})
	sess, err := New(pool.Capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	in := make(map[int]bool)
	for step := 0; step < 15; step++ {
		var d Delta
		for _, tk := range pool.Tasks {
			if in[tk.ID] {
				if r.Intn(4) == 0 {
					d.Remove = append(d.Remove, tk.ID)
				}
			} else if r.Intn(4) == 0 {
				d.Add = append(d.Add, tk)
			}
		}
		res, err := sess.Apply(ctx, d)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, id := range d.Remove {
			delete(in, id)
		}
		for _, tk := range d.Add {
			in[tk.ID] = true
		}
		cur := &model.Instance{Capacity: pool.Capacity, Tasks: sess.Tasks()}
		if err := model.ValidSAP(cur, res.Solution); err != nil {
			t.Fatalf("step %d: infeasible allocation: %v", step, err)
		}
		if !sameItems(res.Solution, coldSolve(t, pool.Capacity, sess.Tasks())) {
			t.Fatalf("step %d: allocation differs from cold solve", step)
		}
	}
}

// degradingPair is two islands split by a zero-load gap: island A (edges
// 0–3) holds medium tasks whose exact class searches cannot finish under
// a one-node budget, island B (edges 6–7) one small task that needs none.
func degradingPair() *model.Instance {
	in := &model.Instance{Capacity: []int64{64, 64, 64, 64, 64, 64, 64, 64}}
	for i := 0; i < 6; i++ {
		in.Tasks = append(in.Tasks, model.Task{ID: i, Start: i % 2, End: 3 + i%2, Demand: 20 + 2*int64(i), Weight: 10 + int64(i%4)})
	}
	in.Tasks = append(in.Tasks, model.Task{ID: 10, Start: 6, End: 8, Demand: 1, Weight: 3})
	return in
}

// TestSessionDegraded: the session reports Degraded while any span of its
// allocation came from a degraded solve, including a span a delta reuses,
// and stops once that span is gone.
func TestSessionDegraded(t *testing.T) {
	in := degradingPair()
	params := core.Params{Exact: exact.Options{MaxNodes: 1}}
	sess, err := New(in.Capacity, Options{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := sess.Apply(ctx, Delta{Add: in.Tasks})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.SolveCtx(ctx, in, params)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || !cold.Report.Degraded {
		t.Fatalf("create: session degraded %v, cold solve degraded %v; want both", res.Degraded, cold.Report.Degraded)
	}
	// Island B re-solves cleanly; island A's degraded span is reused.
	res, err = sess.Apply(ctx, Delta{Add: []model.Task{{ID: 11, Start: 7, End: 8, Demand: 1, Weight: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Full || res.Reused == 0 || !res.Degraded {
		t.Fatalf("delta reusing the degraded span: %+v; want it reused and still degraded", res)
	}
	res, err = sess.Apply(ctx, Delta{Remove: []int{0, 1, 2, 3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("delta removing the degraded span: %+v; want not degraded", res)
	}
}
