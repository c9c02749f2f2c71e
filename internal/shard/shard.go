// Package shard is the zero-load-cut decomposition layer of the combined
// solver: it scans an instance's load profile for cut edges (edges used by
// no task), partitions the task set into fully independent sub-instances,
// solves them concurrently, and stitches the per-shard solutions back into
// one solution on the original path.
//
// The decomposition is exact, not heuristic. Tasks occupy contiguous edge
// intervals, so a task never straddles a zero-load edge: every task lies
// entirely inside one maximal run of loaded edges, and the runs share no
// edge. Feasibility and optimality therefore separate — a solution of the
// whole instance restricted to a run is a solution of the run, and the
// union of per-run solutions is a solution of the whole instance. Solving
// the runs independently preserves every per-theorem approximation factor:
// OPT of the instance is the sum of the per-run OPTs.
//
// Shards are trimmed to exactly their loaded runs (leading, trailing and
// inter-run zero-load edges belong to no shard), so a shard's own load
// profile has no interior cut edge and a recursive decomposition would be
// a no-op by construction.
package shard

import (
	"context"
	"fmt"
	"time"

	"sapalloc/internal/faultinject"
	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/par"
	"sapalloc/internal/saperr"
	"sapalloc/internal/scratch"
)

// Options configures the decomposition layer.
type Options struct {
	// Disable skips the cut scan entirely and forces the monolithic path.
	// The zero value enables sharding: decomposition never changes
	// feasibility and only ever shrinks the sub-problems.
	Disable bool
	// Verify re-checks every shard's solution against its sub-instance
	// (model.ValidSAP) before stitching — a debug flag for the difftest
	// and fuzz harnesses; an infeasible shard solution fails that shard
	// with saperr.ErrInternal instead of corrupting the stitched result.
	Verify bool
}

// Span is one shard's edge window [Lo, Hi) on the original path: a maximal
// run of edges with non-zero task load. Tasks counts the tasks whose
// interval lies inside the window.
type Span struct {
	Lo    int
	Hi    int
	Tasks int
}

// Overlaps reports whether the span's edge window intersects the half-open
// edge range [lo, hi). The incremental session engine uses it to classify
// shards as dirty (their window touches a delta's changed intervals) or
// reusable.
func (s Span) Overlaps(lo, hi int) bool { return s.Lo < hi && lo < s.Hi }

// Lift translates a solution of the span's sub-instance (local edge
// coordinates, as built by Plan.SubInstance) back onto the original path
// by shifting every placement's interval up by Lo. Heights are untouched —
// the vertical axis is per-edge and the capacity window is shared.
func (s Span) Lift(local *model.Solution) *model.Solution {
	if local == nil {
		return nil
	}
	out := &model.Solution{Items: make([]model.Placement, len(local.Items))}
	for i, p := range local.Items {
		p.Task.Start += s.Lo
		p.Task.End += s.Lo
		out.Items[i] = p
	}
	return out
}

// Plan is the result of the cut scan: the shard spans plus the
// sub-instance of each. A plan is immutable once computed and is only
// valid for the instance it was computed from.
type Plan struct {
	spans []Span
	// subs[i] is shard i's sub-instance: the parent's capacity window and
	// the shard's tasks rebased to it, in original input order, so
	// sub-instances inherit the deterministic task order the solvers'
	// tie-breaks key on. All shards' tasks share one slice.
	subs []model.Instance
	// Scan is the wall time of the cut scan.
	Scan time.Duration
}

// Compute scans the load profile and returns the decomposition plan. The
// scan is O(tasks + edges) with scratch-arena temporaries: a difference
// array accumulates per-edge task counts, maximal non-zero runs become the
// spans, and each task is rebased into the span containing its interval.
func Compute(ctx context.Context, in *model.Instance) *Plan {
	start := time.Now()
	p := &Plan{}
	m := in.Edges()
	if m == 0 || len(in.Tasks) == 0 {
		p.Scan = time.Since(start)
		return p
	}
	a, owned := scratch.Acquire(ctx)
	defer scratch.Put(owned)

	// cover[e] = number of tasks whose interval contains edge e, built as
	// a difference array: +1 at Start, −1 at End, then prefix-summed.
	cover := a.IntsZero(m + 1)
	for _, t := range in.Tasks {
		cover[t.Start]++
		cover[t.End]--
	}
	run := 0
	for e := 0; e < m; e++ {
		if e > 0 {
			cover[e] += cover[e-1]
		}
		if cover[e] > 0 {
			if run == 0 {
				p.spans = append(p.spans, Span{Lo: e})
			}
			run++
		} else if run > 0 {
			p.spans[len(p.spans)-1].Hi = e
			run = 0
		}
	}
	if run > 0 {
		p.spans[len(p.spans)-1].Hi = m
	}
	if len(p.spans) < 2 {
		// Nothing to decompose; skip the bucketing work. The single span
		// (or none, for an all-zero profile) still describes the profile,
		// but Decomposes reports false and callers fall through.
		p.Scan = time.Since(start)
		obs.ShardScanNs.Record(int64(p.Scan))
		return p
	}

	// spanOf[e] = index of the span containing edge e (-1 on cut edges).
	spanOf := a.Ints(m)
	for e := range spanOf {
		spanOf[e] = -1
	}
	for i, s := range p.spans {
		for e := s.Lo; e < s.Hi; e++ {
			spanOf[e] = i
		}
	}
	// Bucket tasks by the span containing their start edge. A task's whole
	// interval has positive load, so it cannot cross a cut edge: the span
	// of Start contains [Start, End). Two passes give each shard an
	// exact-size range of one task slice, filled in input order with the
	// tasks rebased by -Lo to address the shard's own edges.
	for _, t := range in.Tasks {
		p.spans[spanOf[t.Start]].Tasks++
	}
	tasks := make([]model.Task, len(in.Tasks))
	p.subs = make([]model.Instance, len(p.spans))
	off := 0
	for i, s := range p.spans {
		// Full slice expressions keep an append on one shard's window
		// from spilling into its neighbour's.
		p.subs[i] = model.Instance{Capacity: in.Capacity[s.Lo:s.Hi:s.Hi], Tasks: tasks[off : off : off+s.Tasks]}
		off += s.Tasks
	}
	for _, t := range in.Tasks {
		i := spanOf[t.Start]
		t.Start -= p.spans[i].Lo
		t.End -= p.spans[i].Lo
		p.subs[i].Tasks = append(p.subs[i].Tasks, t)
	}
	p.Scan = time.Since(start)
	obs.ShardScanNs.Record(int64(p.Scan))
	return p
}

// Len returns the number of shards.
func (p *Plan) Len() int { return len(p.spans) }

// Decomposes reports whether the plan found at least two shards — the
// condition under which scattering beats the monolithic solve.
func (p *Plan) Decomposes() bool { return len(p.spans) >= 2 }

// Span returns shard i's edge window.
func (p *Plan) Span(i int) Span { return p.spans[i] }

// SubInstance returns shard i's sub-instance: the capacity window of the
// parent and the shard's tasks rebased to the window's local coordinates.
// It is shared, with the plan and with the parent's capacities, and
// read-only: every caller sees the same instance, so none may modify it.
func (p *Plan) SubInstance(i int) *model.Instance { return &p.subs[i] }

// State classifies how one shard's solve ended.
type State int

const (
	// Completed: the shard solved normally and its solution is stitched in.
	Completed State = iota
	// Failed: the shard's solver returned an error (or panicked, or — with
	// Options.Verify — produced an infeasible solution). It contributes
	// nothing; the stitched result covers the other shards.
	Failed
	// Skipped: the shard was never dispatched — the context was cancelled
	// while earlier shards were still solving.
	Skipped
)

func (s State) String() string {
	switch s {
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	case Skipped:
		return "skipped"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Outcome records one shard's result for the Report.
type Outcome struct {
	Span    Span
	State   State
	Weight  int64 // weight of the shard's solution (0 when none)
	Elapsed time.Duration
	Err     error // typed error for Failed/Skipped, nil otherwise
}

// Report is the structured account of a sharded solve, attached to the
// core Result so callers and the CLI can see the decomposition.
type Report struct {
	// Shards is the shard count (== len(Outcomes)).
	Shards int
	// Completed/Failed/Skipped partition the shards by outcome.
	Completed int
	Failed    int
	Skipped   int
	// LargestTasks is the task count of the biggest shard — the critical
	// path of the scatter.
	LargestTasks int
	// Scan, Solve and Stitch are the wall times of the three stages
	// (Solve is the wall clock of the whole scatter, not the sum of the
	// per-shard times).
	Scan   time.Duration
	Solve  time.Duration
	Stitch time.Duration
	// Outcomes has one entry per shard, in span (left-to-right) order.
	Outcomes []Outcome
}

// Degraded reports whether any shard failed or was skipped: the stitched
// solution is then feasible but covers only the completed shards.
func (r *Report) Degraded() bool { return r.Failed > 0 || r.Skipped > 0 }

// String renders a compact summary for CLI diagnostics.
func (r *Report) String() string {
	return fmt.Sprintf("shards %d (completed %d, failed %d, skipped %d), largest %d tasks, scan %v, solve %v, stitch %v",
		r.Shards, r.Completed, r.Failed, r.Skipped, r.LargestTasks,
		r.Scan.Round(time.Microsecond), r.Solve.Round(time.Microsecond), r.Stitch.Round(time.Microsecond))
}

// Solver solves one shard's sub-instance. The index identifies the shard
// (callers typically record per-shard diagnostics in an index-addressed
// slice); the sub-instance is in local coordinates, shared and read-only
// (see Plan.SubInstance).
type Solver func(ctx context.Context, index int, sub *model.Instance) (*model.Solution, error)

// Scatter solves every shard of the plan concurrently under the workers
// bound and stitches the completed shards' solutions back into global
// coordinates, concatenated in span order — the stitched solution is
// deterministic for every workers value, because each shard writes into
// its own slot and the stitch runs in fixed order after the join.
//
// Cross-shard feasibility needs no re-check: shards share no edge, so the
// per-shard feasibility (guaranteed by the solver, or re-verified under
// Options.Verify) is global feasibility.
//
// A shard whose solver errors or panics fails alone; Scatter returns an
// error only when the plan has shards and none of them completed — the
// first shard error, or a typed cancellation when the context died before
// any shard ran. A plan without shards stitches an empty solution under a
// zero-shard report. On partial cancellation the completed shards form a
// feasible partial solution and the Report says which shards were lost.
func (p *Plan) Scatter(ctx context.Context, workers int, opts Options, solve Solver) (*model.Solution, *Report, error) {
	start := time.Now()
	obs.ShardSolves.Inc()
	obs.ShardCount.Record(int64(p.Len()))
	outs := par.Run(ctx, p.Len(), workers, func(ctx context.Context, i int) (*model.Solution, error) {
		faultinject.Fire(ctx, "shard/solve")
		// Shards may run concurrently: each gets its own trace track.
		ctx, endShard := obs.StartSpanTrack(ctx, "shard/solve")
		defer endShard()
		sub := p.SubInstance(i)
		obs.ShardTasks.Record(int64(len(sub.Tasks)))
		sol, err := solve(ctx, i, sub)
		if err != nil {
			return nil, err
		}
		if opts.Verify {
			if verr := model.ValidSAP(sub, sol); verr != nil {
				return nil, fmt.Errorf("%w: shard %d produced an infeasible solution: %v", saperr.ErrInternal, i, verr)
			}
		}
		return sol, nil
	})
	solveElapsed := time.Since(start)

	stitchStart := time.Now()
	rep := &Report{Shards: p.Len(), Solve: solveElapsed, Scan: p.Scan, Outcomes: make([]Outcome, len(outs))}
	total := 0
	for i, o := range outs {
		oc := &rep.Outcomes[i]
		*oc = Outcome{Span: p.spans[i], Elapsed: o.Elapsed}
		switch {
		case !o.Ran:
			oc.State = Skipped
			oc.Err = o.Err
			rep.Skipped++
		case o.Err != nil:
			oc.State = Failed
			oc.Err = fmt.Errorf("shard %d (edges [%d,%d)): %w", i, p.spans[i].Lo, p.spans[i].Hi, o.Err)
			rep.Failed++
		default:
			oc.State = Completed
			oc.Weight = o.Val.Weight()
			rep.Completed++
			total += len(o.Val.Items)
		}
		if p.spans[i].Tasks > rep.LargestTasks {
			rep.LargestTasks = p.spans[i].Tasks
		}
	}
	if rep.Completed == 0 && len(outs) > 0 {
		var first error
		for _, oc := range rep.Outcomes {
			if oc.State == Failed {
				first = oc.Err
				break
			}
		}
		if first == nil {
			first = saperr.Cancelled(ctx.Err())
		}
		return nil, rep, fmt.Errorf("no shard completed: %w", first)
	}
	// Stitch in span order: shards are disjoint edge windows left to
	// right, so concatenation preserves both feasibility and determinism.
	// Each placement is lifted back to global coordinates as it is copied.
	sol := &model.Solution{Items: make([]model.Placement, 0, total)}
	for i, o := range outs {
		if o.Val == nil {
			continue
		}
		lo := p.spans[i].Lo
		for _, pl := range o.Val.Items {
			pl.Task.Start += lo
			pl.Task.End += lo
			sol.Items = append(sol.Items, pl)
		}
	}
	rep.Stitch = time.Since(stitchStart)
	obs.ShardStitchNs.Record(int64(rep.Stitch))
	return sol, rep, nil
}
