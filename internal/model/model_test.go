package model

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"sapalloc/internal/saperr"
)

// twoEdgePath builds a tiny instance used by several tests.
func twoEdgePath() *Instance {
	return &Instance{
		Capacity: []int64{10, 8},
		Tasks: []Task{
			{ID: 0, Start: 0, End: 1, Demand: 4, Weight: 5},
			{ID: 1, Start: 1, End: 2, Demand: 3, Weight: 2},
			{ID: 2, Start: 0, End: 2, Demand: 6, Weight: 9},
		},
	}
}

func TestTaskUsesAndOverlaps(t *testing.T) {
	a := Task{Start: 0, End: 2}
	b := Task{Start: 2, End: 4}
	c := Task{Start: 1, End: 3}
	if a.Overlaps(b) {
		t.Errorf("adjacent intervals [0,2) and [2,4) must not overlap")
	}
	if !a.Overlaps(c) || !b.Overlaps(c) {
		t.Errorf("[1,3) must overlap both [0,2) and [2,4)")
	}
	if !a.Uses(0) || !a.Uses(1) || a.Uses(2) {
		t.Errorf("[0,2) uses edges 0,1 only; got Uses(0)=%v Uses(1)=%v Uses(2)=%v", a.Uses(0), a.Uses(1), a.Uses(2))
	}
	if got := a.Edges(); got != 2 {
		t.Errorf("Edges() = %d, want 2", got)
	}
}

func TestInstanceValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Instance)
		ok   bool
	}{
		{"valid", func(in *Instance) {}, true},
		{"zero capacity", func(in *Instance) { in.Capacity[0] = 0 }, false},
		{"negative capacity", func(in *Instance) { in.Capacity[1] = -3 }, false},
		{"start after end", func(in *Instance) { in.Tasks[0].Start, in.Tasks[0].End = 2, 1 }, false},
		{"end past path", func(in *Instance) { in.Tasks[0].End = 5 }, false},
		{"negative start", func(in *Instance) { in.Tasks[0].Start = -1 }, false},
		{"empty interval", func(in *Instance) { in.Tasks[0].End = in.Tasks[0].Start }, false},
		{"zero demand", func(in *Instance) { in.Tasks[1].Demand = 0 }, false},
		{"negative weight", func(in *Instance) { in.Tasks[2].Weight = -1 }, false},
		{"duplicate id", func(in *Instance) { in.Tasks[2].ID = in.Tasks[0].ID }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := twoEdgePath()
			tc.mut(in)
			err := in.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Errorf("Validate() = nil, want error")
			}
		})
	}
}

func TestBottleneck(t *testing.T) {
	in := twoEdgePath()
	if b := in.Bottleneck(in.Tasks[0]); b != 10 {
		t.Errorf("bottleneck of [0,1) = %d, want 10", b)
	}
	if b := in.Bottleneck(in.Tasks[1]); b != 8 {
		t.Errorf("bottleneck of [1,2) = %d, want 8", b)
	}
	if b := in.Bottleneck(in.Tasks[2]); b != 8 {
		t.Errorf("bottleneck of [0,2) = %d, want 8", b)
	}
	bs := in.Bottlenecks()
	want := []int64{10, 8, 8}
	for i := range want {
		if bs[i] != want[i] {
			t.Errorf("Bottlenecks()[%d] = %d, want %d", i, bs[i], want[i])
		}
	}
}

func TestMinMaxCapacity(t *testing.T) {
	in := twoEdgePath()
	if in.MinCapacity() != 8 || in.MaxCapacity() != 10 {
		t.Errorf("min/max capacity = %d/%d, want 8/10", in.MinCapacity(), in.MaxCapacity())
	}
	empty := &Instance{}
	if empty.MinCapacity() != 0 || empty.MaxCapacity() != 0 {
		t.Errorf("empty path min/max = %d/%d, want 0/0", empty.MinCapacity(), empty.MaxCapacity())
	}
}

func TestLoadAndMaxLoad(t *testing.T) {
	in := twoEdgePath()
	load := in.Load(in.Tasks)
	if load[0] != 10 || load[1] != 9 {
		t.Errorf("load = %v, want [10 9]", load)
	}
	if got := in.MaxLoad(in.Tasks); got != 10 {
		t.Errorf("MaxLoad = %d, want 10", got)
	}
}

func TestDeltaClassification(t *testing.T) {
	in := twoEdgePath()
	// Task 0: d=4, b=10. δ=1/2: 4*2 <= 1*10 → small. δ=1/4: 4*4 <= 10 false → large.
	if !in.IsDeltaSmall(in.Tasks[0], 1, 2) {
		t.Errorf("task 0 should be 1/2-small")
	}
	if in.IsDeltaSmall(in.Tasks[0], 1, 4) {
		t.Errorf("task 0 should be 1/4-large")
	}
	small, large := in.SplitDelta(1, 2)
	if len(small)+len(large) != len(in.Tasks) {
		t.Fatalf("split lost tasks: %d + %d != %d", len(small), len(large), len(in.Tasks))
	}
	for _, s := range small {
		if in.IsDeltaLarge(s, 1, 2) {
			t.Errorf("task %d misclassified as small", s.ID)
		}
	}
	// Boundary: d exactly δ·b counts as small (d ≤ δ b).
	bIn := &Instance{Capacity: []int64{8}, Tasks: []Task{{ID: 0, Start: 0, End: 1, Demand: 4, Weight: 1}}}
	if !bIn.IsDeltaSmall(bIn.Tasks[0], 1, 2) {
		t.Errorf("d = δ·b must classify as δ-small")
	}
}

func TestUniform(t *testing.T) {
	in := &Instance{Capacity: []int64{5, 5, 5}}
	if !in.Uniform() {
		t.Errorf("all-5 capacities should be uniform")
	}
	in.Capacity[1] = 4
	if in.Uniform() {
		t.Errorf("mixed capacities should not be uniform")
	}
}

func TestClipCapacities(t *testing.T) {
	in := twoEdgePath()
	clipped := in.ClipCapacities(9)
	if clipped.Capacity[0] != 9 || clipped.Capacity[1] != 8 {
		t.Errorf("clip to 9: got %v, want [9 8]", clipped.Capacity)
	}
	// Original untouched.
	if in.Capacity[0] != 10 {
		t.Errorf("ClipCapacities mutated the original instance")
	}
}

func TestSolutionBasics(t *testing.T) {
	in := twoEdgePath()
	s := NewSolution([]Task{in.Tasks[0], in.Tasks[1]}, []int64{0, 4})
	if s.Weight() != 7 {
		t.Errorf("Weight = %d, want 7", s.Weight())
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	mu := s.Makespan(in.Edges())
	if mu[0] != 4 || mu[1] != 7 {
		t.Errorf("makespan = %v, want [4 7]", mu)
	}
	if s.MaxMakespan(in.Edges()) != 7 {
		t.Errorf("MaxMakespan = %d, want 7", s.MaxMakespan(in.Edges()))
	}
	if !s.Packable(in.Edges(), 7) || s.Packable(in.Edges(), 6) {
		t.Errorf("packable thresholds wrong around 7")
	}
	lifted := s.Clone().Lift(1)
	if lifted.Items[0].Height != 1 || s.Items[0].Height != 0 {
		t.Errorf("Lift must act on the clone only")
	}
}

func TestNewSolutionPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("NewSolution with mismatched lengths must panic")
		}
	}()
	NewSolution([]Task{{}}, nil)
}

func TestValidSAP(t *testing.T) {
	in := twoEdgePath()
	// Feasible: task0 at 0 (edge0), task1 at 0 (edge1) — disjoint paths.
	ok := NewSolution([]Task{in.Tasks[0], in.Tasks[1]}, []int64{0, 0})
	if err := ValidSAP(in, ok); err != nil {
		t.Errorf("feasible solution rejected: %v", err)
	}
	// Capacity violation: task2 demand 6 at height 3 tops 9 > 8 on edge 1.
	bad := NewSolution([]Task{in.Tasks[2]}, []int64{3})
	if err := ValidSAP(in, bad); !errors.Is(err, ErrInfeasible) {
		t.Errorf("capacity violation not detected: %v", err)
	}
	// Vertical overlap: tasks 0 and 2 share edge 0, heights 0 and 2 with d=4,6.
	bad2 := NewSolution([]Task{in.Tasks[0], in.Tasks[2]}, []int64{0, 2})
	if err := ValidSAP(in, bad2); !errors.Is(err, ErrInfeasible) {
		t.Errorf("vertical overlap not detected: %v", err)
	}
	// Touching is fine: task0 [0,4), task2 at height 4 would top 10 > 8 on edge1;
	// use capacity 12 variant.
	in2 := &Instance{Capacity: []int64{12, 12}, Tasks: in.Tasks}
	okTouch := NewSolution([]Task{in.Tasks[0], in.Tasks[2]}, []int64{0, 4})
	if err := ValidSAP(in2, okTouch); err != nil {
		t.Errorf("touching rectangles rejected: %v", err)
	}
	// Duplicate scheduling.
	dup := NewSolution([]Task{in.Tasks[0], in.Tasks[0]}, []int64{0, 6})
	if err := ValidSAP(in, dup); !errors.Is(err, ErrInfeasible) {
		t.Errorf("duplicate task not detected: %v", err)
	}
	// Foreign task.
	foreign := NewSolution([]Task{{ID: 99, Start: 0, End: 1, Demand: 1, Weight: 1}}, []int64{0})
	if err := ValidSAP(in, foreign); !errors.Is(err, ErrInfeasible) {
		t.Errorf("foreign task not detected: %v", err)
	}
	// Negative height.
	neg := NewSolution([]Task{in.Tasks[0]}, []int64{-1})
	if err := ValidSAP(in, neg); !errors.Is(err, ErrInfeasible) {
		t.Errorf("negative height not detected: %v", err)
	}
}

func TestValidUFPP(t *testing.T) {
	in := twoEdgePath()
	if err := ValidUFPP(in, []Task{in.Tasks[0], in.Tasks[2]}); err != nil {
		t.Errorf("feasible UFPP set rejected: %v", err)
	}
	// All three: load on edge 0 is 10 ≤ 10, edge 1 is 9 > 8? 3+6=9>8 → infeasible.
	if err := ValidUFPP(in, in.Tasks); !errors.Is(err, ErrInfeasible) {
		t.Errorf("overload not detected: %v", err)
	}
	if err := ValidUFPP(in, []Task{in.Tasks[0], in.Tasks[0]}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("duplicate not detected: %v", err)
	}
}

// TestFig1Instances reproduces Figure 1 of the paper: task sets that are
// UFPP-feasible but admit no SAP packing of all tasks.
func TestFig1Instances(t *testing.T) {
	// Fig 1a shape: capacities (0.5, 1, 0.5) scaled to integers → (1, 2, 1);
	// two thick tasks of demand 1 on [0,2) and [1,3). Their loads fit every
	// edge (UFPP-feasible) but both are pinned to height 0 by their
	// bottleneck edges and collide on the middle edge (SAP-infeasible).
	a := &Instance{
		Capacity: []int64{1, 2, 1},
		Tasks: []Task{
			{ID: 0, Start: 0, End: 2, Demand: 1, Weight: 1},
			{ID: 1, Start: 1, End: 3, Demand: 1, Weight: 1},
		},
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Fig 1a invalid: %v", err)
	}
	if err := ValidUFPP(a, a.Tasks); err != nil {
		t.Fatalf("Fig 1a must be UFPP-feasible: %v", err)
	}
	// Exhaustively check no height assignment packs all four (heights are
	// integers in [0, cap-d]; brute force).
	if sapAllFeasible(a) {
		t.Errorf("Fig 1a: unexpectedly found a SAP packing of all tasks")
	}
}

// sapAllFeasible brute-forces integer heights for all tasks.
func sapAllFeasible(in *Instance) bool {
	n := len(in.Tasks)
	heights := make([]int64, n)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			return ValidSAP(in, NewSolution(in.Tasks, heights)) == nil
		}
		maxH := in.Bottleneck(in.Tasks[i]) - in.Tasks[i].Demand
		for h := int64(0); h <= maxH; h++ {
			heights[i] = h
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

func TestJSONRoundTrip(t *testing.T) {
	in := twoEdgePath()
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadInstanceJSON(&buf)
	if err != nil {
		t.Fatalf("ReadInstanceJSON: %v", err)
	}
	if len(back.Tasks) != len(in.Tasks) || back.Capacity[1] != in.Capacity[1] {
		t.Errorf("round trip lost data: %+v", back)
	}
	s := NewSolution([]Task{in.Tasks[0]}, []int64{2})
	buf.Reset()
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("solution WriteJSON: %v", err)
	}
	s2, err := ReadSolutionJSON(&buf, in)
	if err != nil {
		t.Fatalf("ReadSolutionJSON: %v", err)
	}
	if s2.Items[0].Height != 2 || s2.Items[0].Task.ID != 0 {
		t.Errorf("solution round trip lost data: %+v", s2.Items)
	}
}

func TestJSONRejectsBadDocs(t *testing.T) {
	if _, err := ReadInstanceJSON(bytes.NewBufferString("{nonsense")); err == nil {
		t.Errorf("garbage JSON accepted")
	}
	if _, err := ReadInstanceJSON(bytes.NewBufferString(`{"kind":"ring","capacity":[1],"tasks":[]}`)); err == nil {
		t.Errorf("ring doc accepted as path instance")
	}
	if _, err := ReadSolutionJSON(bytes.NewBufferString(`{"items":[{"task_id":42,"height":0}]}`), twoEdgePath()); err == nil {
		t.Errorf("solution with unknown task accepted")
	}
}

// TestReadSolutionJSONRejectsDuplicates pins the trust-boundary fix: a
// document repeating a task_id used to deserialize into a double-counted,
// disjointness-violating Solution with no error. Both rejection paths must
// carry the typed infeasible-input sentinel.
func TestReadSolutionJSONRejectsDuplicates(t *testing.T) {
	in := twoEdgePath()
	doc := `{"items":[{"task_id":0,"height":0},{"task_id":1,"height":3},{"task_id":0,"height":5}]}`
	s, err := ReadSolutionJSON(bytes.NewBufferString(doc), in)
	if err == nil {
		t.Fatalf("duplicate task_id accepted: %d items, weight %d", s.Len(), s.Weight())
	}
	if !errors.Is(err, saperr.ErrInfeasibleInput) {
		t.Errorf("duplicate rejection lacks typed sentinel: %v", err)
	}
	_, err = ReadSolutionJSON(bytes.NewBufferString(`{"items":[{"task_id":42,"height":0}]}`), in)
	if !errors.Is(err, saperr.ErrInfeasibleInput) {
		t.Errorf("unknown-id rejection lacks typed sentinel: %v", err)
	}
}

// Property: clipping capacities to max bottleneck never invalidates a
// feasible solution whose tasks all have bottleneck ≤ clip.
func TestClipPreservesFeasibilityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, 6, 8, 20)
		// Build a trivially feasible solution: schedule tasks greedily at
		// increasing heights on a single stack bounded by min capacity.
		sol := &Solution{}
		var top int64
		for _, tk := range in.Tasks {
			if top+tk.Demand <= in.Bottleneck(tk) {
				sol.Items = append(sol.Items, Placement{Task: tk, Height: top})
				top += tk.Demand
			}
		}
		if ValidSAP(in, sol) != nil {
			return false
		}
		var maxB int64
		for _, p := range sol.Items {
			if b := in.Bottleneck(p.Task); b > maxB {
				maxB = b
			}
		}
		if maxB == 0 {
			return true
		}
		clipped := in.ClipCapacities(maxB)
		// Tasks' identity matters: rebuild against clipped tasks (same set).
		return ValidSAP(clipped, sol) == nil
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// randomInstance builds a small random instance for property tests.
func randomInstance(r *rand.Rand, m, n int, maxCap int64) *Instance {
	in := &Instance{Capacity: make([]int64, m)}
	for e := range in.Capacity {
		in.Capacity[e] = 1 + r.Int63n(maxCap)
	}
	for i := 0; i < n; i++ {
		s := r.Intn(m)
		e := s + 1 + r.Intn(m-s)
		in.Tasks = append(in.Tasks, Task{
			ID:     i,
			Start:  s,
			End:    e,
			Demand: 1 + r.Int63n(maxCap/2+1),
			Weight: 1 + r.Int63n(50),
		})
	}
	return in
}

func TestRingValidateAndArcs(t *testing.T) {
	r := &RingInstance{
		Capacity: []int64{5, 6, 7, 4},
		Tasks: []RingTask{
			{ID: 0, Start: 0, End: 2, Demand: 2, Weight: 3},
			{ID: 1, Start: 3, End: 1, Demand: 1, Weight: 2},
		},
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cw := r.ArcEdges(r.Tasks[0], Clockwise)
	if len(cw) != 2 || cw[0] != 0 || cw[1] != 1 {
		t.Errorf("cw arc of (0,2) = %v, want [0 1]", cw)
	}
	ccw := r.ArcEdges(r.Tasks[0], CounterClockwise)
	if len(ccw) != 2 || ccw[0] != 2 || ccw[1] != 3 {
		t.Errorf("ccw arc of (0,2) = %v, want [2 3]", ccw)
	}
	if b := r.ArcBottleneck(r.Tasks[0], Clockwise); b != 5 {
		t.Errorf("cw bottleneck = %d, want 5", b)
	}
	if b := r.ArcBottleneck(r.Tasks[0], CounterClockwise); b != 4 {
		t.Errorf("ccw bottleneck = %d, want 4", b)
	}
	if e := r.MinCapacityEdge(); e != 3 {
		t.Errorf("MinCapacityEdge = %d, want 3", e)
	}

	bad := &RingInstance{Capacity: []int64{1, 1}, Tasks: nil}
	if err := bad.Validate(); err == nil {
		t.Errorf("2-edge ring accepted")
	}
	bad2 := &RingInstance{Capacity: []int64{1, 1, 1}, Tasks: []RingTask{{ID: 0, Start: 1, End: 1, Demand: 1, Weight: 1}}}
	if err := bad2.Validate(); err == nil {
		t.Errorf("degenerate ring task accepted")
	}
}

func TestRingCutAt(t *testing.T) {
	r := &RingInstance{
		Capacity: []int64{5, 6, 7, 4},
		Tasks: []RingTask{
			{ID: 0, Start: 0, End: 2, Demand: 2, Weight: 3},
			{ID: 1, Start: 3, End: 1, Demand: 1, Weight: 2},
		},
	}
	// Cut edge 3 (connects vertices 3 and 0). Path vertices: ring 0→path 0,
	// ring 1→1, ring 2→2, ring 3→3. Path edges = ring edges 0,1,2.
	p := r.CutAt(3)
	if p.Edges() != 3 {
		t.Fatalf("cut path edges = %d, want 3", p.Edges())
	}
	want := []int64{5, 6, 7}
	for i, c := range want {
		if p.Capacity[i] != c {
			t.Errorf("cut capacity[%d] = %d, want %d", i, p.Capacity[i], c)
		}
	}
	// Task 0 (ring 0→2): path [0,2). Task 1 (ring 3→1): path vertices 3 and 1 → [1,3).
	for _, tk := range p.Tasks {
		switch tk.ID {
		case 0:
			if tk.Start != 0 || tk.End != 2 {
				t.Errorf("task 0 mapped to [%d,%d), want [0,2)", tk.Start, tk.End)
			}
		case 1:
			if tk.Start != 1 || tk.End != 3 {
				t.Errorf("task 1 mapped to [%d,%d), want [1,3)", tk.Start, tk.End)
			}
		}
	}
	if err := p.Validate(); err != nil {
		t.Errorf("cut instance invalid: %v", err)
	}
}

func TestValidRingSAP(t *testing.T) {
	r := &RingInstance{
		Capacity: []int64{5, 6, 7, 4},
		Tasks: []RingTask{
			{ID: 0, Start: 0, End: 2, Demand: 2, Weight: 3},
			{ID: 1, Start: 0, End: 2, Demand: 3, Weight: 2},
		},
	}
	// Both clockwise (edges 0,1): heights 0 and 2 → feasible (tops 2 and 5 ≤ 5,6).
	sol := &RingSolution{Items: []RingPlacement{
		{Task: r.Tasks[0], Orientation: Clockwise, Height: 0},
		{Task: r.Tasks[1], Orientation: Clockwise, Height: 2},
	}}
	if err := ValidRingSAP(r, sol); err != nil {
		t.Errorf("feasible ring solution rejected: %v", err)
	}
	// Overlap.
	sol.Items[1].Height = 1
	if err := ValidRingSAP(r, sol); !errors.Is(err, ErrInfeasible) {
		t.Errorf("overlap not detected: %v", err)
	}
	// Opposite orientations avoid each other entirely.
	sol.Items[1] = RingPlacement{Task: r.Tasks[1], Orientation: CounterClockwise, Height: 1}
	if err := ValidRingSAP(r, sol); err != nil {
		t.Errorf("disjoint arcs rejected: %v", err)
	}
	// Capacity violation on ccw arc (edge 3 capacity 4): height 2, demand 3 → top 5 > 4.
	sol.Items[1].Height = 2
	if err := ValidRingSAP(r, sol); !errors.Is(err, ErrInfeasible) {
		t.Errorf("ring capacity violation not detected: %v", err)
	}
}

func TestWeightDemandHelpers(t *testing.T) {
	in := twoEdgePath()
	if WeightOf(in.Tasks) != 16 {
		t.Errorf("WeightOf = %d, want 16", WeightOf(in.Tasks))
	}
	if DemandOf(in.Tasks) != 13 {
		t.Errorf("DemandOf = %d, want 13", DemandOf(in.Tasks))
	}
	if in.TotalWeight() != 16 {
		t.Errorf("TotalWeight = %d, want 16", in.TotalWeight())
	}
}

func TestTaskByIDAndRestrict(t *testing.T) {
	in := twoEdgePath()
	tk, ok := in.TaskByID(1)
	if !ok || tk.Demand != 3 {
		t.Errorf("TaskByID(1) = %v, %v", tk, ok)
	}
	if _, ok := in.TaskByID(42); ok {
		t.Errorf("TaskByID(42) should not exist")
	}
	sub := in.Restrict(in.Tasks[:1])
	if len(sub.Tasks) != 1 || sub.Edges() != in.Edges() {
		t.Errorf("Restrict produced %d tasks on %d edges", len(sub.Tasks), sub.Edges())
	}
	sub.Tasks[0].Weight = 999
	if in.Tasks[0].Weight == 999 {
		t.Errorf("Restrict must copy tasks")
	}
}

func TestRingJSONRoundTrip(t *testing.T) {
	r := &RingInstance{
		Capacity: []int64{5, 6, 7},
		Tasks:    []RingTask{{ID: 3, Start: 0, End: 2, Demand: 2, Weight: 9}},
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadRingJSON(&buf)
	if err != nil {
		t.Fatalf("ReadRingJSON: %v", err)
	}
	if len(back.Tasks) != 1 || back.Tasks[0].Weight != 9 || back.Capacity[2] != 7 {
		t.Errorf("round trip lost data: %+v", back)
	}
	// A path doc must be rejected by the ring reader.
	var pbuf bytes.Buffer
	if err := (&Instance{Capacity: []int64{4}}).WriteJSON(&pbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRingJSON(&pbuf); err == nil {
		t.Errorf("path doc accepted as ring")
	}
	if _, err := ReadRingJSON(bytes.NewBufferString("{bad")); err == nil {
		t.Errorf("garbage accepted")
	}
	if _, err := ReadRingJSON(bytes.NewBufferString(`{"kind":"ring","capacity":[1,1],"tasks":[]}`)); err == nil {
		t.Errorf("invalid ring accepted")
	}
}

// TestRestrictSharesCapacity pins Restrict's copy-on-write contract: the
// restricted instance aliases the parent's capacity slice (no copy), while
// the task slice is an independent copy. The shard decomposition layer
// leans on the same contract for its capacity windows.
func TestRestrictSharesCapacity(t *testing.T) {
	in := &Instance{
		Capacity: []int64{5, 6, 7},
		Tasks:    []Task{{ID: 0, Start: 0, End: 2, Demand: 1, Weight: 1}},
	}
	r := in.Restrict(in.Tasks)
	if &r.Capacity[0] != &in.Capacity[0] {
		t.Error("Restrict copied the capacity slice; the contract is read-only sharing")
	}
	r.Tasks[0].Weight = 99
	if in.Tasks[0].Weight != 1 {
		t.Error("Restrict aliased the task slice; tasks must be copied")
	}
	// The mutating escape hatches allocate fresh slices.
	if c := in.ClipCapacities(6); &c.Capacity[0] == &in.Capacity[0] {
		t.Error("ClipCapacities aliased the parent capacity slice")
	}
	if c := in.Clone(); &c.Capacity[0] == &in.Capacity[0] {
		t.Error("Clone aliased the parent capacity slice")
	}
}
