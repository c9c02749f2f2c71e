package shard_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sapalloc/internal/model"
	"sapalloc/internal/saperr"
	"sapalloc/internal/shard"
)

// islands3 is a hand-built three-island instance on 10 edges:
//
//	edges   0 1 | 2 | 3 4 5 | 6 7 | 8 | 9
//	tasks   [0,2)   [3,5)         [8,9)
//	              [5,6) shares span with [3,5) (touching intervals, edge 5 loaded)
//
// Cut edges: 2, 6, 7, 9. Spans: [0,2), [3,6), [8,9).
func islands3() *model.Instance {
	return &model.Instance{
		Capacity: []int64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10},
		Tasks: []model.Task{
			{ID: 0, Start: 0, End: 2, Demand: 3, Weight: 5},
			{ID: 1, Start: 3, End: 5, Demand: 4, Weight: 7},
			{ID: 2, Start: 5, End: 6, Demand: 2, Weight: 1},
			{ID: 3, Start: 8, End: 9, Demand: 6, Weight: 9},
		},
	}
}

func TestComputeSpans(t *testing.T) {
	in := islands3()
	p := shard.Compute(context.Background(), in)
	want := []shard.Span{{Lo: 0, Hi: 2, Tasks: 1}, {Lo: 3, Hi: 6, Tasks: 2}, {Lo: 8, Hi: 9, Tasks: 1}}
	if p.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(want))
	}
	if !p.Decomposes() {
		t.Fatal("Decomposes = false, want true")
	}
	for i, w := range want {
		if got := p.Span(i); got != w {
			t.Errorf("Span(%d) = %+v, want %+v", i, got, w)
		}
	}
}

func TestComputeSubInstanceRebasesAndSharesCapacity(t *testing.T) {
	in := islands3()
	p := shard.Compute(context.Background(), in)
	sub := p.SubInstance(1) // edges [3,6), tasks 1 and 2
	if got, want := len(sub.Capacity), 3; got != want {
		t.Fatalf("sub edges = %d, want %d", got, want)
	}
	if &sub.Capacity[0] != &in.Capacity[3] {
		t.Error("sub capacity window is a copy; want it shared with the parent (copy-on-write contract)")
	}
	wantTasks := []model.Task{
		{ID: 1, Start: 0, End: 2, Demand: 4, Weight: 7},
		{ID: 2, Start: 2, End: 3, Demand: 2, Weight: 1},
	}
	if !reflect.DeepEqual(sub.Tasks, wantTasks) {
		t.Errorf("sub tasks = %+v, want %+v", sub.Tasks, wantTasks)
	}
	// The rebased sub-instance must be self-consistent.
	if err := sub.Validate(); err != nil {
		t.Errorf("sub-instance invalid: %v", err)
	}
}

// TestSubInstanceAppendIsolation: all shards' tasks share one slice and
// every capacity window shares the parent's, so an append on one shard's
// slices must reallocate rather than spill into its neighbour's memory.
func TestSubInstanceAppendIsolation(t *testing.T) {
	in := islands3()
	p := shard.Compute(context.Background(), in)
	sub0, sub1 := p.SubInstance(0), p.SubInstance(1)
	wantTask := sub1.Tasks[0]
	_ = append(sub0.Tasks, model.Task{ID: 99})
	_ = append(sub0.Capacity, 999)
	if sub1.Tasks[0] != wantTask {
		t.Errorf("append on shard 0's tasks clobbered shard 1's: %+v", sub1.Tasks[0])
	}
	if in.Capacity[2] != 10 {
		t.Errorf("append on shard 0's window clobbered the parent's cut edge: %v", in.Capacity)
	}
}

func TestComputeDegenerate(t *testing.T) {
	// Dense: every edge loaded → one span, no decomposition.
	dense := &model.Instance{
		Capacity: []int64{8, 8, 8},
		Tasks:    []model.Task{{ID: 0, Start: 0, End: 3, Demand: 1, Weight: 1}},
	}
	if p := shard.Compute(context.Background(), dense); p.Decomposes() {
		t.Errorf("dense instance decomposed into %d spans", p.Len())
	}
	// Empty task set → no spans.
	empty := &model.Instance{Capacity: []int64{8, 8}}
	if p := shard.Compute(context.Background(), empty); p.Len() != 0 || p.Decomposes() {
		t.Errorf("empty instance: Len=%d Decomposes=%v, want 0/false", p.Len(), p.Decomposes())
	}
	// Every edge a cut between singleton tasks: n singleton shards.
	n := 6
	sing := &model.Instance{Capacity: make([]int64, 2*n-1)}
	for e := range sing.Capacity {
		sing.Capacity[e] = 4
	}
	for i := 0; i < n; i++ {
		sing.Tasks = append(sing.Tasks, model.Task{ID: i, Start: 2 * i, End: 2*i + 1, Demand: 2, Weight: int64(i + 1)})
	}
	p := shard.Compute(context.Background(), sing)
	if p.Len() != n {
		t.Fatalf("singleton instance: %d spans, want %d", p.Len(), n)
	}
	for i := 0; i < n; i++ {
		if s := p.Span(i); s.Lo != 2*i || s.Hi != 2*i+1 || s.Tasks != 1 {
			t.Errorf("span %d = %+v, want {%d %d 1}", i, s, 2*i, 2*i+1)
		}
	}
}

func TestLift(t *testing.T) {
	s := shard.Span{Lo: 5, Hi: 8}
	local := &model.Solution{Items: []model.Placement{
		{Task: model.Task{ID: 7, Start: 1, End: 3, Demand: 2, Weight: 4}, Height: 6},
	}}
	got := s.Lift(local)
	want := model.Placement{Task: model.Task{ID: 7, Start: 6, End: 8, Demand: 2, Weight: 4}, Height: 6}
	if len(got.Items) != 1 || got.Items[0] != want {
		t.Errorf("Lift = %+v, want %+v", got.Items, want)
	}
	// Lift copies; the local solution must be untouched.
	if local.Items[0].Task.Start != 1 {
		t.Error("Lift mutated the local solution")
	}
}

// heaviest schedules the single heaviest task of the sub-instance at height
// zero — trivially feasible, deterministic, and distinct per shard.
func heaviest(_ context.Context, _ int, sub *model.Instance) (*model.Solution, error) {
	best := 0
	for i, t := range sub.Tasks {
		if t.Weight > sub.Tasks[best].Weight {
			best = i
		}
	}
	return &model.Solution{Items: []model.Placement{{Task: sub.Tasks[best], Height: 0}}}, nil
}

func TestScatterStitch(t *testing.T) {
	in := islands3()
	p := shard.Compute(context.Background(), in)
	for _, workers := range []int{1, 2, 8} {
		sol, rep, err := p.Scatter(context.Background(), workers, shard.Options{Verify: true}, heaviest)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Shards != 3 || rep.Completed != 3 || rep.Failed != 0 || rep.Skipped != 0 {
			t.Fatalf("workers=%d: report %+v", workers, rep)
		}
		if rep.Degraded() {
			t.Errorf("workers=%d: degraded report for a clean scatter", workers)
		}
		if rep.LargestTasks != 2 {
			t.Errorf("workers=%d: LargestTasks = %d, want 2", workers, rep.LargestTasks)
		}
		// Heaviest per span: task 0 (w5), task 1 (w7), task 3 (w9) — in
		// span order, back in global coordinates.
		wantIDs := []int{0, 1, 3}
		if len(sol.Items) != len(wantIDs) {
			t.Fatalf("workers=%d: %d placements, want %d", workers, len(sol.Items), len(wantIDs))
		}
		for i, id := range wantIDs {
			if sol.Items[i].Task.ID != id {
				t.Errorf("workers=%d: placement %d is task %d, want %d", workers, i, sol.Items[i].Task.ID, id)
			}
		}
		if err := model.ValidSAP(in, sol); err != nil {
			t.Errorf("workers=%d: stitched solution infeasible on the parent: %v", workers, err)
		}
		if got, want := sol.Weight(), int64(5+7+9); got != want {
			t.Errorf("workers=%d: weight %d, want %d", workers, got, want)
		}
	}
}

func TestScatterShardFailureDegrades(t *testing.T) {
	in := islands3()
	p := shard.Compute(context.Background(), in)
	boom := errors.New("boom")
	solve := func(ctx context.Context, i int, sub *model.Instance) (*model.Solution, error) {
		if i == 1 {
			return nil, boom
		}
		return heaviest(ctx, i, sub)
	}
	sol, rep, err := p.Scatter(context.Background(), 1, shard.Options{}, solve)
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	if rep.Completed != 2 || rep.Failed != 1 || !rep.Degraded() {
		t.Fatalf("report %+v, want 2 completed / 1 failed / degraded", rep)
	}
	if !errors.Is(rep.Outcomes[1].Err, boom) {
		t.Errorf("outcome err = %v, want wrapped boom", rep.Outcomes[1].Err)
	}
	if got, want := sol.Weight(), int64(5+9); got != want {
		t.Errorf("partial weight %d, want %d", got, want)
	}
}

func TestScatterContainsShardPanic(t *testing.T) {
	in := islands3()
	p := shard.Compute(context.Background(), in)
	solve := func(ctx context.Context, i int, sub *model.Instance) (*model.Solution, error) {
		if i == 0 {
			panic("shard bug")
		}
		return heaviest(ctx, i, sub)
	}
	sol, rep, err := p.Scatter(context.Background(), 1, shard.Options{}, solve)
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	if rep.Failed != 1 || rep.Completed != 2 {
		t.Fatalf("report %+v, want the panicking shard contained as Failed", rep)
	}
	if !errors.Is(rep.Outcomes[0].Err, saperr.ErrInternal) {
		t.Errorf("outcome err = %v, want saperr.ErrInternal", rep.Outcomes[0].Err)
	}
	if sol == nil || sol.Weight() != 7+9 {
		t.Errorf("partial solution = %+v, want weight 16", sol)
	}
}

func TestScatterVerifyCatchesInfeasibleShard(t *testing.T) {
	in := islands3()
	p := shard.Compute(context.Background(), in)
	solve := func(_ context.Context, i int, sub *model.Instance) (*model.Solution, error) {
		// Height at full capacity: top = capacity + demand > capacity.
		return &model.Solution{Items: []model.Placement{{Task: sub.Tasks[0], Height: sub.Capacity[sub.Tasks[0].Start]}}}, nil
	}
	_, rep, err := p.Scatter(context.Background(), 1, shard.Options{Verify: true}, solve)
	if err == nil {
		t.Fatal("scatter accepted infeasible shard solutions with Verify on")
	}
	if !errors.Is(err, saperr.ErrInternal) {
		t.Errorf("err = %v, want saperr.ErrInternal", err)
	}
	if rep.Failed != rep.Shards {
		t.Errorf("report %+v, want every shard failed verification", rep)
	}
}

func TestScatterAllFailReturnsFirstError(t *testing.T) {
	in := islands3()
	p := shard.Compute(context.Background(), in)
	solve := func(_ context.Context, i int, _ *model.Instance) (*model.Solution, error) {
		return nil, fmt.Errorf("shard %d refused", i)
	}
	sol, rep, err := p.Scatter(context.Background(), 1, shard.Options{}, solve)
	if err == nil || sol != nil {
		t.Fatalf("got sol=%v err=%v, want nil solution and an error", sol, err)
	}
	if rep.Completed != 0 || rep.Failed != rep.Shards {
		t.Errorf("report %+v, want all failed", rep)
	}
}

func TestScatterCancelledBeforeStart(t *testing.T) {
	in := islands3()
	p := shard.Compute(context.Background(), in)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, rep, err := p.Scatter(ctx, 1, shard.Options{}, heaviest)
	if err == nil || sol != nil {
		t.Fatalf("got sol=%v err=%v, want typed cancellation", sol, err)
	}
	if !saperr.IsCancelled(err) {
		t.Errorf("err = %v, want a cancellation", err)
	}
	if rep.Skipped != rep.Shards {
		t.Errorf("report %+v, want all shards skipped", rep)
	}
}

// TestScatterEmptyPlan pins the plan of an instance without tasks: there is
// nothing to solve, so Scatter stitches an empty solution and reports zero
// shards instead of claiming that no shard completed.
func TestScatterEmptyPlan(t *testing.T) {
	p := shard.Compute(context.Background(), &model.Instance{Capacity: []int64{4, 4}})
	if p.Len() != 0 {
		t.Fatalf("Len = %d, want 0", p.Len())
	}
	sol, rep, err := p.Scatter(context.Background(), 1, shard.Options{}, heaviest)
	if err != nil || sol == nil || sol.Len() != 0 {
		t.Fatalf("got sol=%v err=%v, want an empty solution", sol, err)
	}
	if rep.Shards != 0 || rep.Completed != 0 || rep.Failed != 0 || rep.Skipped != 0 || len(rep.Outcomes) != 0 {
		t.Errorf("report %+v, want zero shards", rep)
	}
}
