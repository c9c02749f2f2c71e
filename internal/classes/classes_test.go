package classes

import (
	"math"
	"slices"
	"sort"
	"testing"

	"sapalloc/internal/model"
	"sapalloc/internal/scratch"
)

func TestLog2(t *testing.T) {
	cases := map[int64]int{
		-5: -1, 0: -1, 1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1023: 9, 1024: 10,
		1 << 62: 62, math.MaxInt64: 62,
	}
	for v, want := range cases {
		if got := Log2(v); got != want {
			t.Errorf("Log2(%d) = %d, want %d", v, got, want)
		}
	}
}

// referenceClasses is the map bucketing the plan replaces: every task is
// appended to each of its span classes, and the class exponents are sorted.
func referenceClasses(in *model.Instance, span int) ([]int, map[int][]model.Task) {
	classTasks := map[int][]model.Task{}
	for _, t := range in.Tasks {
		top := Log2(in.Bottleneck(t))
		for k := top - span + 1; k <= top; k++ {
			classTasks[k] = append(classTasks[k], t)
		}
	}
	ks := make([]int, 0, len(classTasks))
	for k := range classTasks {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks, classTasks
}

// fuzzInstance decodes an instance and a span from data: one byte for the
// span, one for the edge count, one per capacity (small values give
// bottlenecks below 2^span, so negative k; the high bit picks a power of two
// up to 2^62 or math.MaxInt64, which reach the clip guard), then three bytes
// per task.
func fuzzInstance(data []byte) (*model.Instance, int) {
	if len(data) < 2 {
		return &model.Instance{}, 1
	}
	span := 1 + int(data[0]%8)
	m := 1 + int(data[1]%8)
	data = data[2:]
	in := &model.Instance{Capacity: make([]int64, m)}
	for e := range in.Capacity {
		if len(data) == 0 {
			in.Capacity[e] = 1
			continue
		}
		v := data[0]
		data = data[1:]
		switch {
		case v == 0xFF:
			in.Capacity[e] = math.MaxInt64
		case v&0x80 != 0:
			in.Capacity[e] = int64(1)<<(v%63) + int64(v&3)
		default:
			in.Capacity[e] = int64(v % 20)
		}
	}
	for id := 0; len(data) >= 3 && id < 64; id++ {
		start := int(data[0]) % m
		end := start + 1 + int(data[1])%(m-start)
		in.Tasks = append(in.Tasks, model.Task{ID: id, Start: start, End: end, Demand: 1 + int64(data[2]%7), Weight: int64(data[2])})
		data = data[3:]
	}
	return in, span
}

// FuzzPlan checks the plan against the map bucketing (class exponents in
// ascending order, tasks in input order, contiguous ranges that cover the
// buffer), its runs against a direct comparison of every two classes' task
// lists, and every class's clip against min(c, 2^{k+span}) inside the
// guard 0 ≤ k+span < 62 and against c outside it.
func FuzzPlan(f *testing.F) {
	f.Add([]byte{0, 3, 5, 9, 17, 0, 2, 1, 1, 0, 3, 2, 1, 4})                  // span 1
	f.Add([]byte{3, 4, 2, 1, 3, 19, 0, 3, 5, 1, 1, 6, 2, 0, 7, 3, 0, 1})      // span 4, negative k
	f.Add([]byte{5, 3, 0xBB, 0xFF, 0x01, 0, 2, 9, 1, 0, 4, 2, 1, 1, 0, 0, 2}) // 2^61+3, MaxInt64, 1
	f.Add([]byte{0, 2, 0xBC, 0xBC, 0, 1, 3, 1, 0, 8})                         // 2^62: top 62
	f.Add([]byte{3, 3, 16, 16, 16, 0, 2, 1, 1, 1, 2, 0, 0, 4})                // span 4, uniform: one run
	f.Fuzz(func(t *testing.T, data []byte) {
		in, span := fuzzInstance(data)
		a := scratch.Get()
		defer scratch.Put(a)
		p := New(a, in, span)
		ks, want := referenceClasses(in, span)
		if p.Len() != len(ks) {
			t.Fatalf("span %d: %d classes, reference has %d", span, p.Len(), len(ks))
		}
		size := 0
		for i, k := range ks {
			if p.K(i) != k {
				t.Fatalf("class %d: k = %d, reference %d", i, p.K(i), k)
			}
			if lo, hi := p.Range(i); lo != size || hi != size+len(want[k]) {
				t.Fatalf("class k=%d: range [%d,%d), want [%d,%d)", k, lo, hi, size, size+len(want[k]))
			}
			if !slices.Equal(p.Tasks(i), want[k]) {
				t.Fatalf("class k=%d: tasks %v, reference %v", k, p.Tasks(i), want[k])
			}
			size += len(want[k])
			clip := Clip(a, in.Capacity, k, span)
			if len(clip) > 0 && &clip[0] == &in.Capacity[0] {
				t.Fatalf("class k=%d: the clip aliases the capacities", k)
			}
			for e, c := range in.Capacity {
				wantC := c
				if k+span >= 0 && k+span < 62 {
					wantC = min(c, int64(1)<<uint(k+span))
				}
				if clip[e] != wantC {
					t.Fatalf("class k=%d span %d: clip[%d] = %d of %d, want %d", k, span, e, clip[e], c, wantC)
				}
			}
		}
		if p.Size() != size {
			t.Fatalf("Size = %d, classes sum to %d", p.Size(), size)
		}
		for i := range ks {
			if lead := p.Lead(i); lead != i && (i == 0 || lead != p.Lead(i-1)) {
				t.Fatalf("class k=%d: lead %d is neither itself nor the lead of its left neighbour", ks[i], lead)
			}
			for j := range ks {
				same := slices.Equal(want[ks[i]], want[ks[j]])
				if (p.Lead(i) == p.Lead(j)) != same {
					t.Fatalf("span %d: classes k=%d and k=%d: leads %d and %d, equal task lists %v", span, ks[i], ks[j], p.Lead(i), p.Lead(j), same)
				}
			}
		}
	})
}
