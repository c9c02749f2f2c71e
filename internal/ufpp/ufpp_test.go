package ufpp

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sapalloc/internal/gen"
	"sapalloc/internal/lp"
	"sapalloc/internal/model"
	"sapalloc/internal/scratch"
)

// smallBandInstance builds a random δ-small instance with capacities in
// [B, 2B): every task demand is at most delta·B.
func smallBandInstance(r *rand.Rand, m, n int, b int64, deltaDen int64) *model.Instance {
	in := &model.Instance{Capacity: make([]int64, m)}
	for e := range in.Capacity {
		in.Capacity[e] = b + r.Int63n(b) // [B, 2B)
	}
	maxD := b / deltaDen
	if maxD < 1 {
		maxD = 1
	}
	for i := 0; i < n; i++ {
		s := r.Intn(m)
		e := s + 1 + r.Intn(m-s)
		in.Tasks = append(in.Tasks, model.Task{
			ID: i, Start: s, End: e,
			Demand: 1 + r.Int63n(maxD),
			Weight: 1 + r.Int63n(100),
		})
	}
	return in
}

func maxLoadOf(in *model.Instance, tasks []model.Task) int64 {
	return in.MaxLoad(tasks)
}

func TestHalfPackableBudgetAndFeasibility(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		b := int64(64)
		in := smallBandInstance(r, 3+r.Intn(8), 10+r.Intn(40), b, 8)
		sol, lpOpt, err := HalfPackable(in, b, RoundOptions{Seed: int64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := model.ValidUFPP(in, sol); err != nil {
			t.Fatalf("trial %d: rounding produced infeasible set: %v", trial, err)
		}
		if got := maxLoadOf(in, sol); got > b/2 {
			t.Fatalf("trial %d: load %d exceeds B/2 = %d", trial, got, b/2)
		}
		if w := model.WeightOf(sol); float64(w) > lpOpt+1e-6 {
			t.Fatalf("trial %d: integral weight %d above LP bound %g", trial, w, lpOpt)
		}
		if lpOpt <= 0 {
			t.Fatalf("trial %d: vacuous LP bound %g", trial, lpOpt)
		}
	}
}

func TestHalfPackableEmpty(t *testing.T) {
	in := &model.Instance{Capacity: []int64{8}}
	sol, lpOpt, err := HalfPackable(in, 8, RoundOptions{})
	if err != nil || len(sol) != 0 || lpOpt != 0 {
		t.Errorf("empty instance: sol=%v lp=%g err=%v", sol, lpOpt, err)
	}
}

// The rounding should capture a decent share of the LP optimum on δ-small
// instances. The paper's pipeline loses 4·(1+ε); we assert the measured
// rounded weight is at least LP/8 — comfortably inside the analysis and
// far from vacuous.
func TestHalfPackableQuality(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		b := int64(128)
		in := smallBandInstance(r, 4+r.Intn(6), 40, b, 16)
		sol, lpOpt, err := HalfPackable(in, b, RoundOptions{Seed: 42, Trials: 12})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if w := float64(model.WeightOf(sol)); w < lpOpt/8 {
			t.Errorf("trial %d: rounded %g far below LP/8 (%g)", trial, w, lpOpt/8)
		}
	}
}

func TestLocalRatioStripBudget(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		b := int64(64)
		in := smallBandInstance(r, 3+r.Intn(8), 5+r.Intn(40), b, 8)
		sol := LocalRatioStrip(in, b)
		if err := model.ValidUFPP(in, sol); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
		if got := maxLoadOf(in, sol); got > b/2 {
			t.Fatalf("trial %d: load %d exceeds B/2 = %d", trial, got, b/2)
		}
	}
}

// Local-ratio Strip approximation: the appendix proves ratio 5/(1−4δ)
// against OPT_SAP; we check a weaker but concrete statement against the
// brute-force UFPP optimum of tiny instances restricted to B/2 capacities
// (the benchmark harness measures the real ratio on larger ones).
func TestLocalRatioStripNontrivial(t *testing.T) {
	// Disjoint tasks must all be selected regardless of weights.
	in := &model.Instance{
		Capacity: []int64{16, 16, 16},
		Tasks: []model.Task{
			{ID: 0, Start: 0, End: 1, Demand: 2, Weight: 5},
			{ID: 1, Start: 1, End: 2, Demand: 2, Weight: 1},
			{ID: 2, Start: 2, End: 3, Demand: 2, Weight: 7},
		},
	}
	sol := LocalRatioStrip(in, 16)
	if len(sol) != 3 {
		t.Errorf("disjoint tasks: selected %d of 3", len(sol))
	}
	// Zero-weight tasks are never picked.
	in.Tasks[1].Weight = 0
	sol = LocalRatioStrip(in, 16)
	for _, tk := range sol {
		if tk.ID == 1 {
			t.Errorf("zero-weight task selected")
		}
	}
}

func TestLocalRatioStripPrefersHeavy(t *testing.T) {
	// Two stacked conflicts: budget B/2 = 4 forces a choice; the heavy task
	// must survive the local-ratio competition.
	in := &model.Instance{
		Capacity: []int64{8},
		Tasks: []model.Task{
			{ID: 0, Start: 0, End: 1, Demand: 3, Weight: 100},
			{ID: 1, Start: 0, End: 1, Demand: 3, Weight: 1},
		},
	}
	sol := LocalRatioStrip(in, 8)
	if len(sol) != 1 || sol[0].ID != 0 {
		t.Errorf("expected only the heavy task, got %v", sol)
	}
}

func TestUniformBaseline(t *testing.T) {
	in := &model.Instance{
		Capacity: []int64{10, 10, 10},
		Tasks: []model.Task{
			{ID: 0, Start: 0, End: 3, Demand: 6, Weight: 8}, // wide
			{ID: 1, Start: 0, End: 2, Demand: 4, Weight: 5}, // narrow
			{ID: 2, Start: 2, End: 3, Demand: 4, Weight: 5}, // narrow
			{ID: 3, Start: 1, End: 2, Demand: 7, Weight: 3}, // wide
		},
	}
	sol, err := UniformBaseline(in)
	if err != nil {
		t.Fatalf("UniformBaseline: %v", err)
	}
	if err := model.ValidUFPP(in, sol); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	// Narrow pair is worth 10 > any wide combination (8).
	if model.WeightOf(sol) < 10 {
		t.Errorf("weight %d below narrow pair 10", model.WeightOf(sol))
	}
}

func TestUniformBaselineRejectsNonUniform(t *testing.T) {
	in := &model.Instance{Capacity: []int64{4, 5}}
	if _, err := UniformBaseline(in); err == nil {
		t.Errorf("non-uniform instance accepted")
	}
}

func TestUniformBaselineEmpty(t *testing.T) {
	in := &model.Instance{Capacity: []int64{4}}
	sol, err := UniformBaseline(in)
	if err != nil || len(sol) != 0 {
		t.Errorf("empty: %v %v", sol, err)
	}
}

// Measured ratio of the uniform baseline vs brute force stays within the
// provable 4 (wide exact + narrow ≤ 3 best-of) on random instances.
func TestUniformBaselineRatio(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		m := 2 + r.Intn(4)
		c := int64(8)
		in := &model.Instance{Capacity: make([]int64, m)}
		for e := range in.Capacity {
			in.Capacity[e] = c
		}
		n := 2 + r.Intn(8)
		for j := 0; j < n; j++ {
			s := r.Intn(m)
			e := s + 1 + r.Intn(m-s)
			in.Tasks = append(in.Tasks, model.Task{
				ID: j, Start: s, End: e,
				Demand: 1 + r.Int63n(c),
				Weight: 1 + r.Int63n(30),
			})
		}
		sol, err := UniformBaseline(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := model.ValidUFPP(in, sol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt := bruteForceUFPP(in)
		if got := model.WeightOf(sol); 4*got < opt {
			t.Errorf("trial %d: baseline %d below OPT/4 (OPT=%d)", trial, got, opt)
		}
	}
}

func bruteForceUFPP(in *model.Instance) int64 {
	n := len(in.Tasks)
	var best int64
	for mask := 0; mask < 1<<n; mask++ {
		var tasks []model.Task
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				tasks = append(tasks, in.Tasks[j])
			}
		}
		if model.ValidUFPP(in, tasks) == nil {
			if w := model.WeightOf(tasks); w > best {
				best = w
			}
		}
	}
	return best
}

func TestEvictToBudget(t *testing.T) {
	in := &model.Instance{
		Capacity: []int64{100},
		Tasks: []model.Task{
			{ID: 0, Start: 0, End: 1, Demand: 4, Weight: 1},  // density 0.25
			{ID: 1, Start: 0, End: 1, Demand: 4, Weight: 40}, // density 10
			{ID: 2, Start: 0, End: 1, Demand: 4, Weight: 20}, // density 5
		},
	}
	kept := evictToBudget(append([]model.Task(nil), in.Tasks...), make([]int64, in.Edges()), 8)
	if len(kept) != 2 {
		t.Fatalf("kept %d tasks, want 2", len(kept))
	}
	for _, k := range kept {
		if k.ID == 0 {
			t.Errorf("least dense task survived eviction")
		}
	}
}

// The density order compares Weight·Demand cross products, which overflow
// int64 at the magnitudes Validate admits (2^40 · 2^36 = 2^76). The heavy
// task is the denser one and must survive.
func TestEvictToBudgetHugeMagnitudes(t *testing.T) {
	in := &model.Instance{
		Capacity: []int64{1 << 37},
		Tasks: []model.Task{
			{ID: 0, Start: 0, End: 1, Demand: 1 << 36, Weight: 1 << 40},
			{ID: 1, Start: 0, End: 1, Demand: 1 << 36, Weight: 1},
		},
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("instance: %v", err)
	}
	kept := evictToBudget(append([]model.Task(nil), in.Tasks...), make([]int64, in.Edges()), 1<<36)
	if len(kept) != 1 || kept[0].ID != 0 {
		t.Errorf("kept %v, want only the weight-2^40 task", kept)
	}
}

// The trials compete with the LP-density greedy, which wins on the inputs
// the golden tests pin, so a trial's own output is checked here. For every
// trial stream, the repaired sample is a set of the class's tasks and fits
// the budget on every edge. On these few-task classes with demands up to
// B/2 a trial beats the greedy now and then, and HalfPackable must return
// the heaviest candidate intact, although the trials after it reuse its
// buffers.
func TestRoundingTrialRepairs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	evicted, lateWins, varied := 0, 0, 0
	for c := 0; c < 200; c++ {
		b := int64(64)
		in := smallBandInstance(r, 2+r.Intn(6), 4+r.Intn(8), b, 2)
		x, _, err := lp.UFPPFractional(in)
		if err != nil {
			t.Fatalf("class %d: %v", c, err)
		}
		for j := range x {
			x[j] /= 4
		}
		opts := RoundOptions{Seed: int64(c)}.withDefaults()
		a := scratch.Get()
		want := model.WeightOf(greedyByLPDensity(a, in, x, b/2))
		winner := -1
		samples := map[string]bool{}
		ro := newRounder(a, in, x, b/2, opts)
		for trial := 0; trial < 64; trial++ {
			kept := ro.trial(trial)
			evicted += len(ro.sample) - len(kept)
			samples[fmt.Sprint(kept)] = true
			seen := map[int]bool{}
			for _, k := range kept {
				if seen[k.ID] || k != in.Tasks[k.ID] {
					t.Fatalf("class %d trial %d: %v is not a distinct task of the class", c, trial, k)
				}
				seen[k.ID] = true
			}
			if got := maxLoadOf(in, kept); got > b/2 {
				t.Fatalf("class %d trial %d: load %d exceeds budget %d", c, trial, got, b/2)
			}
			if w := model.WeightOf(kept); trial < opts.Trials && w > want {
				want, winner = w, trial
			}
		}
		if winner >= 0 && winner < opts.Trials-1 {
			lateWins++
		}
		if len(samples) > 1 {
			varied++
		}
		scratch.Put(a)
		sol, _, err := HalfPackable(in, b, opts)
		if err != nil {
			t.Fatalf("class %d: %v", c, err)
		}
		if err := model.ValidUFPP(in, sol); err != nil || maxLoadOf(in, sol) > b/2 || model.WeightOf(sol) != want {
			t.Fatalf("class %d: HalfPackable returned %v (weight %d), want the best candidate's weight %d within budget %d: %v",
				c, sol, model.WeightOf(sol), want, b/2, err)
		}
	}
	if evicted == 0 || lateWins == 0 {
		t.Errorf("%d evictions, %d classes won by a trial before the last: the repair or the best-of went untested", evicted, lateWins)
	}
	if varied == 0 {
		t.Errorf("every class drew the same sample in all 64 trials: the trial streams do not depend on the trial")
	}
	t.Logf("%d tasks evicted over 200×64 trials; %d classes won by a trial before the last; %d classes drew different samples", evicted, lateWins, varied)
}

// TestAllocsHalfPackable pins the allocations of one Strip-Pack class
// rounding: the LP tableau, the greedy and eight trials that share their
// sample and load buffers all live in the arena, and the call allocates
// only the returned selection and a few fixed-size headers.
func TestAllocsHalfPackable(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	in := gen.Random(gen.Config{Seed: 4, Edges: 16, Tasks: 40, CapLo: 512, CapHi: 513, Class: gen.Small})
	a := scratch.Get()
	defer scratch.Put(a)
	ctx := scratch.With(context.Background(), a)
	f := func() {
		a.Reset()
		if _, _, err := HalfPackableCtx(ctx, in, 512, RoundOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	f() // warm the arena
	const budget = 4
	got := testing.AllocsPerRun(20, f)
	t.Logf("HalfPackableCtx: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("HalfPackableCtx: %.1f allocs/op exceeds budget %d", got, budget)
	}
}
