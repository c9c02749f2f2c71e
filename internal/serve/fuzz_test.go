package serve

import (
	"cmp"
	"crypto/sha256"
	"slices"
	"testing"

	"sapalloc/internal/model"
	"sapalloc/internal/sapcache"
)

// compareNormalForm is the sorted normal form spelled out: by interval,
// then demand, weight and ID.
func compareNormalForm(a, b model.Task) int {
	return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End),
		cmp.Compare(a.Demand, b.Demand), cmp.Compare(a.Weight, b.Weight), cmp.Compare(a.ID, b.ID))
}

// FuzzCanonicalKey drives the copy-free request intake with random path
// and ring instances whose tasks repeat (Start, End) pairs or reach End
// near model.MaxEdges. It checks that
//   - Normalize sorts tasks in place into the order slices.SortFunc gives
//     under the normal-form comparison;
//   - the streamed keys equal sha256.Sum256 of CanonicalBytes, for the
//     instance as given and in normal form.
//
// Wired into check.sh fuzz and the CI fuzz-smoke job.
func FuzzCanonicalKey(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(0))
	f.Add(int64(7), uint16(400), uint8(1))
	f.Add(int64(-3), uint16(3), uint8(2))
	f.Add(int64(99), uint16(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, mode uint8) {
		rng := splitMix(uint64(seed))
		n := int(nRaw % 600)
		in := &model.Instance{Capacity: make([]int64, 1+rng()%6)}
		for e := range in.Capacity {
			in.Capacity[e] = int64(rng()%64) + 1
		}
		for i := 0; i < n; i++ {
			tk := model.Task{ID: int(rng() % uint64(2*n+1)), Demand: int64(rng() % 8), Weight: int64(rng() % 8)}
			switch mode % 3 {
			case 0: // few distinct intervals: long runs of equal (Start, End)
				tk.Start = int(rng() % 4)
				tk.End = tk.Start + 1 + int(rng()%3)
			case 1: // intervals ending at or near MaxEdges
				tk.End = model.MaxEdges - int(rng()%4)
				tk.Start = tk.End - 1 - int(rng()%3)
			default:
				tk.Start = int(rng() % 64)
				tk.End = tk.Start + 1 + int(rng()%64)
			}
			in.Tasks = append(in.Tasks, tk)
		}

		want := slices.Clone(in.Tasks)
		slices.SortFunc(want, compareNormalForm)
		norm := &model.Instance{Capacity: in.Capacity, Tasks: slices.Clone(in.Tasks)}
		norm.Normalize()
		if !slices.Equal(norm.Tasks, want) {
			t.Fatal("Normalize order differs from slices.SortFunc")
		}
		wantKey := sapcache.Key(sha256.Sum256(in.CanonicalBytes()))
		if got := sapcache.KeyOf(in); got != wantKey {
			t.Fatal("streamed key of the instance as given differs from sha256(CanonicalBytes)")
		}
		if got := sapcache.KeyOf(norm); got != wantKey {
			t.Fatal("streamed key of the normal form differs from sha256(CanonicalBytes)")
		}

		ring := &model.RingInstance{Capacity: in.Capacity}
		for _, tk := range in.Tasks {
			ring.Tasks = append(ring.Tasks, model.RingTask(tk))
		}
		wantRing := sapcache.Key(sha256.Sum256(ring.CanonicalBytes()))
		ring.Normalize()
		for i, tk := range ring.Tasks {
			if model.Task(tk) != want[i] {
				t.Fatal("ring Normalize order differs from slices.SortFunc")
			}
		}
		if got := sapcache.KeyOfRing(ring); got != wantRing {
			t.Fatal("streamed ring key differs from sha256(CanonicalBytes)")
		}
	})
}

// splitMix is a small deterministic generator for fuzz bodies.
func splitMix(state uint64) func() uint64 {
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
}
