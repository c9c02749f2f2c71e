// Package chendp implements the dynamic program of Chen, Hassin and Tzur
// ("Allocation of bandwidth and storage", IIE Transactions 2002) — related
// work [18] in the paper — which solves SAP with uniform integer capacity K
// and integer demands exactly in O(n·(nK)^K) time.
//
// The DP sweeps the path left to right. A state at edge e is the exact
// occupancy of the K vertical cells by the scheduled tasks whose intervals
// cross e (each crossing task holds a fixed contiguous cell range, the same
// on every edge it crosses — precisely SAP's defining constraint). Between
// edges, tasks that end are dropped from the state and tasks that start may
// be inserted at any free height. Because K is a constant, the number of
// states per edge is polynomial, and the heaviest final state is optimal.
//
// The library uses it as a second, independently-derived exact reference
// for SAP-U (cross-checked against internal/exact in the tests and in
// experiment E18) and as a historical baseline.
package chendp

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"sapalloc/internal/model"
	"sapalloc/internal/saperr"
	"sapalloc/internal/scratch"
)

// MaxCapacity bounds the uniform capacity the DP accepts; beyond this the
// state space is impractical.
const MaxCapacity = 16

// ErrUnsupported is returned for instances outside the DP's scope
// (non-uniform capacities or K > MaxCapacity).
var ErrUnsupported = errors.New("chendp: instance outside the Chen-Hassin-Tzur DP scope")

// ErrTooManyStates is returned when the state space exceeds the safety cap.
var ErrTooManyStates = errors.New("chendp: state space exceeds limit")

// Options bounds the computation.
type Options struct {
	// MaxStates caps the per-edge state count (0 = 2 million).
	MaxStates int
}

func (o Options) withDefaults() Options {
	if o.MaxStates == 0 {
		o.MaxStates = 2_000_000
	}
	return o
}

// placement is an in-flight (task, height) pair, encoded per state. Both
// coordinates fit int32: SolveCtx rejects ≥ 2^23 tasks and heights are
// bounded by MaxCapacity.
type placement struct {
	task   int32 // index into in.Tasks
	height int32
}

// Solve computes an optimal SAP solution for a uniform-capacity instance
// with capacity K ≤ MaxCapacity and integer demands in 1..K.
func Solve(in *model.Instance, opts Options) (*model.Solution, error) {
	return SolveCtx(context.Background(), in, opts)
}

// SolveCtx is Solve under a context, polled once per edge sweep. The DP has
// no usable partial answer (interior layers never reach the right end), so
// on cancellation it returns a typed saperr.ErrCancelled.
func SolveCtx(ctx context.Context, in *model.Instance, opts Options) (*model.Solution, error) {
	opts = opts.withDefaults()
	if in.Edges() == 0 || len(in.Tasks) == 0 {
		return &model.Solution{}, nil
	}
	if !in.Uniform() {
		return nil, fmt.Errorf("%w: capacities are not uniform", ErrUnsupported)
	}
	k := in.Capacity[0]
	if k > MaxCapacity {
		return nil, fmt.Errorf("%w: capacity %d exceeds %d", ErrUnsupported, k, MaxCapacity)
	}
	if len(in.Tasks) >= 1<<23 {
		return nil, fmt.Errorf("%w: too many tasks", ErrUnsupported)
	}
	return solveDP(ctx, in, opts)
}

// dpState is one DP state in the append-only slab: accumulated weight, a
// link to the predecessor state at the previous edge (-1 for the virtual
// root) and this state's placements as a window into the shared placement
// slab. Replacing the per-edge trace maps with the slab removes the DP's
// per-edge allocations; reconstruction is a predecessor walk.
type dpState struct {
	weight  int64
	prevIdx int32
	psOff   int32
	psCount int32
}

// solveDP is the shared DP engine behind SolveCtx and SolveNonUniformCtx
// (uniform capacity is the special case where the per-edge crossing check
// never fires). Callers have validated capacity and task-count bounds.
//
// The sweep is allocation-lean: the mask→state map is cleared per edge, not
// reallocated; states grow in one slab; each terminal of the insertion
// enumeration sorts its placements into a reused buffer by insertion sort
// (task indices are unique, so the order is deterministic) and encodes the
// key into a reused byte buffer. Equal-weight ties keep the first state
// emitted — now a deterministic insertion order, where the former map
// iteration was arbitrary.
func solveDP(ctx context.Context, in *model.Instance, opts Options) (*model.Solution, error) {
	edges := in.Edges()
	a, owned := scratch.Acquire(ctx)
	defer scratch.Put(owned)
	bot := in.BottleneckLookup()
	// CSR layout of schedulable tasks by start edge (index order per edge,
	// matching the former append order).
	startOff := a.IntsZero(edges + 1)
	eligible := 0
	for _, t := range in.Tasks {
		if t.Demand <= bot.Of(t) {
			startOff[t.Start+1]++
			eligible++
		}
	}
	for e := 0; e < edges; e++ {
		startOff[e+1] += startOff[e]
	}
	startFlat := a.Ints(eligible)
	fill := a.Ints(edges)
	copy(fill, startOff[:edges])
	for i, t := range in.Tasks {
		if t.Demand <= bot.Of(t) {
			startFlat[fill[t.Start]] = i
			fill[t.Start]++
		}
	}
	// Every placement occupies at least one of an edge's ≤ MaxCapacity
	// cells, so a state never holds more than maxK placements.
	maxK := int(in.MaxCapacity())
	psBuf := make([]placement, 0, maxK)
	sortBuf := make([]placement, maxK)
	keyBuf := make([]byte, 0, maxK*6)
	states := make([]dpState, 1, 256)
	states[0] = dpState{prevIdx: -1} // virtual root before edge 0
	var psSlab []placement
	idx := make(map[string]int32, 64)
	// State under expansion, hoisted so the recursive closure is allocated
	// once per solve instead of once per state.
	var (
		stStarters []int
		stWeight   int64
		stPrev     int32
		ce         int64 // capacity of the edge being swept
	)
	emit := func(ps []placement, addW int64) {
		sorted := sortBuf[:len(ps)]
		copy(sorted, ps)
		for i := 1; i < len(sorted); i++ {
			v := sorted[i]
			j := i - 1
			for j >= 0 && sorted[j].task > v.task {
				sorted[j+1] = sorted[j]
				j--
			}
			sorted[j+1] = v
		}
		keyBuf = keyBuf[:0]
		for _, p := range sorted {
			keyBuf = append(keyBuf,
				byte(p.task), byte(p.task>>8), byte(p.task>>16),
				byte(p.height), byte(p.height>>8), byte(p.height>>16))
		}
		w := stWeight + addW
		if j, ok := idx[string(keyBuf)]; ok {
			// Same key ⇒ same placement set; only the route differs.
			if w > states[j].weight {
				states[j].weight = w
				states[j].prevIdx = stPrev
			}
			return
		}
		off := int32(len(psSlab))
		psSlab = append(psSlab, sorted...)
		idx[string(keyBuf)] = int32(len(states))
		states = append(states, dpState{weight: w, prevIdx: stPrev, psOff: off, psCount: int32(len(sorted))})
	}
	var insert func(si int, ps []placement, occNow uint32, addW int64)
	insert = func(si int, ps []placement, occNow uint32, addW int64) {
		if si == len(stStarters) {
			emit(ps, addW)
			return
		}
		// Skip this starter.
		insert(si+1, ps, occNow, addW)
		// Place it at every free height.
		ti := stStarters[si]
		d := in.Tasks[ti].Demand
		var block uint32 = (1 << uint(d)) - 1
		for h := int64(0); h+d <= ce; h++ {
			if occNow&(block<<uint(h)) == 0 {
				insert(si+1, append(ps, placement{task: int32(ti), height: int32(h)}),
					occNow|(block<<uint(h)), addW+in.Tasks[ti].Weight)
			}
		}
	}
	curLo, curHi := 0, 1
	for e := 0; e < edges; e++ {
		if err := saperr.FromContext(ctx); err != nil {
			return nil, err
		}
		ce = in.Capacity[e]
		stStarters = startFlat[startOff[e]:startOff[e+1]]
		clear(idx)
		for si := curLo; si < curHi; si++ {
			ent := states[si]
			// Drop tasks ending at vertex e; crossing tasks must fit under
			// this edge's capacity too (vacuous on uniform instances).
			kept := psBuf[:0]
			var occ uint32
			ok := true
			for _, p := range psSlab[ent.psOff : ent.psOff+ent.psCount] {
				t := in.Tasks[p.task]
				if t.End <= e {
					continue
				}
				if int64(p.height)+t.Demand > ce {
					ok = false
					break
				}
				kept = append(kept, p)
				for c := p.height; c < p.height+int32(t.Demand); c++ {
					occ |= 1 << uint(c)
				}
			}
			if !ok {
				continue
			}
			stWeight, stPrev = ent.weight, int32(si)
			insert(0, kept, occ, 0)
			if len(idx) > opts.MaxStates {
				return nil, fmt.Errorf("%w: more than %d states at edge %d", ErrTooManyStates, opts.MaxStates, e)
			}
		}
		curLo, curHi = curHi, len(states)
	}
	// Best final state; walk the predecessor chain collecting placements. A
	// task appears in the state of every edge it crosses with the same
	// height, so collecting (task, height) pairs into a set suffices.
	bestIdx := 0
	var bestW int64 = -1
	for i := curLo; i < curHi; i++ {
		if states[i].weight > bestW {
			bestW = states[i].weight
			bestIdx = i
		}
	}
	chosen := map[int]int64{}
	for i := bestIdx; i >= 0; i = int(states[i].prevIdx) {
		for _, p := range psSlab[states[i].psOff : states[i].psOff+states[i].psCount] {
			chosen[int(p.task)] = int64(p.height)
		}
	}
	sol := &model.Solution{}
	ids := make([]int, 0, len(chosen))
	for ti := range chosen {
		ids = append(ids, ti)
	}
	sort.Ints(ids)
	for _, ti := range ids {
		sol.Items = append(sol.Items, model.Placement{Task: in.Tasks[ti], Height: chosen[ti]})
	}
	return sol, nil
}

// SolveNonUniform generalises the DP to non-uniform capacities with
// max_e c_e ≤ MaxCapacity: the occupancy state tracks cells [0, c_e) per
// edge. This realises the dynamic program behind Lemma 13 of the paper
// concretely for almost-uniform classes whose capacities fit the cell
// budget (capacities in [2^k, 2^{k+ℓ}) scale into it for small k+ℓ), and
// gives a third exact SAP engine for cross-checking.
func SolveNonUniform(in *model.Instance, opts Options) (*model.Solution, error) {
	return SolveNonUniformCtx(context.Background(), in, opts)
}

// SolveNonUniformCtx is SolveNonUniform under a context (see SolveCtx).
func SolveNonUniformCtx(ctx context.Context, in *model.Instance, opts Options) (*model.Solution, error) {
	opts = opts.withDefaults()
	if in.Edges() == 0 || len(in.Tasks) == 0 {
		return &model.Solution{}, nil
	}
	if in.MaxCapacity() > MaxCapacity {
		return nil, fmt.Errorf("%w: max capacity %d exceeds %d", ErrUnsupported, in.MaxCapacity(), MaxCapacity)
	}
	if len(in.Tasks) >= 1<<23 {
		return nil, fmt.Errorf("%w: too many tasks", ErrUnsupported)
	}
	return solveDP(ctx, in, opts)
}
