package intervals

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	a := Interval{0, 3}
	b := Interval{3, 5}
	c := Interval{2, 4}
	if a.Overlaps(b) {
		t.Errorf("[0,3) and [3,5) must not overlap")
	}
	if !a.Overlaps(c) || !b.Overlaps(c) {
		t.Errorf("[2,4) overlaps both neighbours")
	}
	if !a.Contains(0) || a.Contains(3) {
		t.Errorf("Contains is half-open")
	}
	if a.Len() != 3 {
		t.Errorf("Len = %d, want 3", a.Len())
	}
	if !a.Valid() || (Interval{2, 2}).Valid() {
		t.Errorf("validity wrong")
	}
	if a.String() != "[0,3)" {
		t.Errorf("String = %q", a.String())
	}
}

// cliqueSize returns the most intervals covering any single point.
func cliqueSize(ivs []Interval) int {
	best := 0
	for _, iv := range ivs {
		n := 0
		for _, o := range ivs {
			if o.Contains(iv.Start) {
				n++
			}
		}
		best = max(best, n)
	}
	return best
}

func TestGreedyColorOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		ivs := make([]Interval, n)
		for i := range ivs {
			s := r.Intn(30)
			ivs[i] = Interval{s, s + 1 + r.Intn(10)}
		}
		colors, k := GreedyColor(ivs)
		if k != cliqueSize(ivs) {
			t.Fatalf("greedy used %d colors, clique %d: not optimal", k, cliqueSize(ivs))
		}
		// Proper coloring: same color never overlaps.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if colors[i] == colors[j] && ivs[i].Overlaps(ivs[j]) {
					t.Fatalf("improper coloring: %v and %v share color %d", ivs[i], ivs[j], colors[i])
				}
			}
		}
		for _, c := range colors {
			if c < 0 || c >= k {
				t.Fatalf("color %d out of range [0,%d)", c, k)
			}
		}
	}
}

func TestGreedyColorEmpty(t *testing.T) {
	colors, k := GreedyColor(nil)
	if len(colors) != 0 || k != 0 {
		t.Errorf("empty coloring = %v,%d", colors, k)
	}
}

func TestMaxWeightScheduling(t *testing.T) {
	ivs := []Interval{{0, 3}, {2, 5}, {3, 7}, {5, 9}, {8, 10}}
	w := []int64{4, 5, 6, 4, 2}
	chosen, total := MaxWeightScheduling(ivs, w)
	if total != 12 {
		t.Errorf("total = %d, want 12", total)
	}
	// Verify disjointness and recomputed weight.
	var sum int64
	for i := 0; i < len(chosen); i++ {
		sum += w[chosen[i]]
		for j := i + 1; j < len(chosen); j++ {
			if ivs[chosen[i]].Overlaps(ivs[chosen[j]]) {
				t.Errorf("chosen intervals overlap: %v %v", ivs[chosen[i]], ivs[chosen[j]])
			}
		}
	}
	if sum != total {
		t.Errorf("chosen weight %d != reported %d", sum, total)
	}
	if _, total := MaxWeightScheduling(nil, nil); total != 0 {
		t.Errorf("empty scheduling total = %d", total)
	}
}

// Property: MaxWeightScheduling matches brute force on small inputs.
func TestMaxWeightSchedulingBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		ivs := make([]Interval, n)
		w := make([]int64, n)
		for i := range ivs {
			s := r.Intn(12)
			ivs[i] = Interval{s, s + 1 + r.Intn(6)}
			w[i] = 1 + r.Int63n(20)
		}
		_, got := MaxWeightScheduling(ivs, w)
		var best int64
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			var tot int64
			for i := 0; i < n && ok; i++ {
				if mask&(1<<i) == 0 {
					continue
				}
				tot += w[i]
				for j := i + 1; j < n; j++ {
					if mask&(1<<j) != 0 && ivs[i].Overlaps(ivs[j]) {
						ok = false
						break
					}
				}
			}
			if ok && tot > best {
				best = tot
			}
		}
		return got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSegTreeBasics(t *testing.T) {
	s := NewSegTree(10)
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Add(0, 10, 5)
	s.Add(3, 7, 2)
	if got := s.Max(0, 10); got != 7 {
		t.Errorf("Max all = %d, want 7", got)
	}
	if got := s.Max(0, 3); got != 5 {
		t.Errorf("Max [0,3) = %d, want 5", got)
	}
	if got := s.Get(3); got != 7 {
		t.Errorf("Get(3) = %d, want 7", got)
	}
	s.Add(3, 7, -2)
	for i := 0; i < 10; i++ {
		if s.Get(i) != 5 {
			t.Errorf("after undo Get(%d) = %d, want 5", i, s.Get(i))
		}
	}
	if got := s.Max(4, 4); got != 0 {
		t.Errorf("empty range Max = %d, want 0", got)
	}
}

func TestSegTreeMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 33 // non power of two on purpose
	s := NewSegTree(n)
	naive := make([]int64, n)
	for op := 0; op < 2000; op++ {
		lo := r.Intn(n)
		hi := lo + r.Intn(n-lo)
		if r.Intn(2) == 0 {
			v := int64(r.Intn(21) - 10)
			s.Add(lo, hi, v)
			for i := lo; i < hi; i++ {
				naive[i] += v
			}
		} else {
			var want int64
			if hi > lo {
				want = naive[lo]
				for i := lo; i < hi; i++ {
					if naive[i] > want {
						want = naive[i]
					}
				}
			}
			if got := s.Max(lo, hi); got != want {
				t.Fatalf("op %d: Max(%d,%d) = %d, want %d", op, lo, hi, got, want)
			}
		}
	}
	snap := s.Snapshot()
	for i := range naive {
		if snap[i] != naive[i] {
			t.Fatalf("snapshot[%d] = %d, want %d", i, snap[i], naive[i])
		}
	}
}

func TestSegTreeAssign(t *testing.T) {
	s := NewSegTree(8)
	s.Add(0, 8, 5)
	s.Assign(2, 6, -3)
	want := []int64{5, 5, -3, -3, -3, -3, 5, 5}
	for i, w := range want {
		if got := s.Get(i); got != w {
			t.Fatalf("after assign: Get(%d) = %d, want %d", i, got, w)
		}
	}
	// Add on top of a pending assign must shift the assigned range.
	s.Add(0, 8, 2)
	if got := s.Max(2, 6); got != -1 {
		t.Errorf("Max assigned+added = %d, want -1", got)
	}
	if got := s.Max(0, 2); got != 7 {
		t.Errorf("Max untouched+added = %d, want 7", got)
	}
}

// Assign interleaved with Add and Max must track a naive array exactly.
func TestSegTreeAssignMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 29
	s := NewSegTree(n)
	naive := make([]int64, n)
	for op := 0; op < 3000; op++ {
		lo := r.Intn(n)
		hi := lo + r.Intn(n-lo)
		switch r.Intn(3) {
		case 0:
			v := int64(r.Intn(21) - 10)
			s.Add(lo, hi, v)
			for i := lo; i < hi; i++ {
				naive[i] += v
			}
		case 1:
			v := int64(r.Intn(41) - 20)
			s.Assign(lo, hi, v)
			for i := lo; i < hi; i++ {
				naive[i] = v
			}
		default:
			var want int64
			for i := lo; i < hi; i++ {
				if i == lo || naive[i] > want {
					want = naive[i]
				}
			}
			if got := s.Max(lo, hi); got != want {
				t.Fatalf("op %d: Max(%d,%d) = %d, want %d", op, lo, hi, got, want)
			}
		}
	}
	snap := s.Snapshot()
	for i := range naive {
		if snap[i] != naive[i] {
			t.Fatalf("snapshot[%d] = %d, want %d", i, snap[i], naive[i])
		}
	}
}

func TestSegTreePanics(t *testing.T) {
	s := NewSegTree(5)
	for _, fn := range []func(){
		func() { s.Add(-1, 3, 1) },
		func() { s.Add(0, 6, 1) },
		func() { s.Add(3, 2, 1) },
		func() { s.Assign(-1, 3, 1) },
		func() { s.Assign(0, 6, 1) },
		func() { s.Max(-1, 2) },
		func() { NewSegTree(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSegTreeZeroSize(t *testing.T) {
	s := NewSegTree(0)
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.Max(0, 0); got != 0 {
		t.Errorf("Max empty = %d", got)
	}
}
