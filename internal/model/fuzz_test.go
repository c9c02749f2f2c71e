package model

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"sapalloc/internal/saperr"
)

// FuzzReadInstanceJSON hardens the decoder: arbitrary bytes must never
// panic, and anything accepted must validate and survive a round trip
// exactly — capacities, task fields and task order (the solvers'
// deterministic tie-breaks key on it).
func FuzzReadInstanceJSON(f *testing.F) {
	var seed bytes.Buffer
	if err := (&Instance{
		Capacity: []int64{4, 8},
		Tasks:    []Task{{ID: 0, Start: 0, End: 2, Demand: 2, Weight: 3}},
	}).WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"kind":"path","capacity":[],"tasks":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"kind":"path","capacity":[0],"tasks":[]}`))
	f.Add([]byte(`{"kind":"path","capacity":[5],"tasks":[{"id":1,"start":0,"end":9,"demand":1,"weight":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ReadInstanceJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid instance: %v", err)
		}
		var buf bytes.Buffer
		if err := in.WriteJSON(&buf); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := ReadInstanceJSON(&buf)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if !reflect.DeepEqual(back, in) {
			t.Fatalf("round trip drifted:\n got: %+v\nwant: %+v", back, in)
		}
	})
}

// FuzzValidSAP checks the validator never panics on arbitrary placements
// and is consistent with B-packability on accepted ones.
func FuzzValidSAP(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4))
	f.Add(int64(42), uint8(1), uint8(1))
	f.Add(int64(-7), uint8(6), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, mRaw, nRaw uint8) {
		m := int(mRaw%8) + 1
		n := int(nRaw%16) + 1
		rng := newSplitMix(uint64(seed))
		in := &Instance{Capacity: make([]int64, m)}
		for e := range in.Capacity {
			in.Capacity[e] = int64(rng()%32) + 1
		}
		sol := &Solution{}
		for i := 0; i < n; i++ {
			s := int(rng() % uint64(m))
			e := s + 1 + int(rng()%uint64(m-s))
			tk := Task{ID: i, Start: s, End: e, Demand: int64(rng()%16) + 1, Weight: int64(rng() % 64)}
			in.Tasks = append(in.Tasks, tk)
			if rng()%2 == 0 {
				sol.Items = append(sol.Items, Placement{Task: tk, Height: int64(rng()%24) - 2})
			}
		}
		err := ValidSAP(in, sol)
		if err == nil {
			// Accepted solutions must satisfy the makespan bound on every
			// edge they use.
			mu := sol.Makespan(m)
			for e := 0; e < m; e++ {
				if mu[e] > in.Capacity[e] {
					t.Fatalf("validator accepted makespan %d > cap %d at edge %d", mu[e], in.Capacity[e], e)
				}
			}
		}
	})
}

// newSplitMix is a tiny deterministic RNG for fuzz bodies (avoids pulling
// math/rand state into the corpus semantics).
func newSplitMix(state uint64) func() uint64 {
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// FuzzValidateHardened drives Validate as the untrusted-input gate: it must
// never panic, every rejection must carry the typed saperr.ErrInfeasibleInput
// sentinel, and every accepted instance must satisfy the overflow-safety
// invariants the solvers rely on (demand and weight sums fit in int64).
func FuzzValidateHardened(f *testing.F) {
	f.Add(int64(1), uint16(2), uint16(3), int64(4), int64(1), int64(1))
	f.Add(int64(9), uint16(0), uint16(0), int64(0), int64(0), int64(0))
	f.Add(int64(-3), uint16(7), uint16(40), int64(1)<<40, int64(1)<<40, int64(1)<<40)
	f.Add(int64(11), uint16(5), uint16(9), int64(-2), int64(7), int64(1)<<41)
	f.Fuzz(func(t *testing.T, seed int64, mRaw, nRaw uint16, capBias, demBias, wBias int64) {
		m := int(mRaw % 10)
		n := int(nRaw % 24)
		rng := newSplitMix(uint64(seed))
		in := &Instance{}
		for e := 0; e < m; e++ {
			in.Capacity = append(in.Capacity, int64(rng()%64)-4+capBias%8)
		}
		for i := 0; i < n; i++ {
			s := 0
			e := 1
			if m > 0 {
				s = int(rng() % uint64(m+1))
				e = int(rng() % uint64(m+2))
			}
			tk := Task{
				ID:     int(rng() % uint64(n+1)), // collisions on purpose
				Start:  s,
				End:    e,
				Demand: int64(rng()%32) - 2 + demBias%4,
				Weight: int64(rng()%32) - 2 + wBias%4,
			}
			// Occasionally spike a field toward the magnitude limit so the
			// overflow guards get exercised.
			switch rng() % 16 {
			case 0:
				tk.Demand = MaxMagnitude + demBias%4
			case 1:
				tk.Weight = MaxMagnitude + wBias%4
			case 2 % 16:
				if len(in.Capacity) > 0 {
					in.Capacity[rng()%uint64(len(in.Capacity))] = MaxMagnitude + capBias%4
				}
			}
			in.Tasks = append(in.Tasks, tk)
		}
		err := in.Validate()
		if err != nil {
			if !errors.Is(err, saperr.ErrInfeasibleInput) {
				t.Fatalf("Validate rejection lacks typed sentinel: %v", err)
			}
			return
		}
		// Accepted: the documented overflow invariants must hold.
		var dSum, wSum int64
		for _, tk := range in.Tasks {
			if tk.Demand <= 0 || tk.Demand > MaxMagnitude || tk.Weight < 0 || tk.Weight > MaxMagnitude {
				t.Fatalf("Validate accepted out-of-range task %+v", tk)
			}
			dSum += tk.Demand
			wSum += tk.Weight
			if dSum < 0 || wSum < 0 {
				t.Fatalf("Validate accepted an instance whose sums overflow")
			}
		}
		for e, c := range in.Capacity {
			if c <= 0 || c > MaxMagnitude {
				t.Fatalf("Validate accepted out-of-range capacity %d at edge %d", c, e)
			}
		}
	})
}

// FuzzReadSolutionJSON hardens the solution decoder at the trust boundary:
// arbitrary bytes must never panic, every accepted solution binds only to
// tasks of the instance with no task placed twice, and accepted solutions
// survive a WriteJSON round trip.
func FuzzReadSolutionJSON(f *testing.F) {
	in := &Instance{
		Capacity: []int64{8, 6, 8},
		Tasks: []Task{
			{ID: 0, Start: 0, End: 2, Demand: 3, Weight: 5},
			{ID: 1, Start: 1, End: 3, Demand: 2, Weight: 4},
			{ID: 7, Start: 0, End: 1, Demand: 1, Weight: 2},
		},
	}
	f.Add([]byte(`{"items":[{"task_id":0,"height":0},{"task_id":1,"height":3}]}`))
	f.Add([]byte(`{"items":[{"task_id":0,"height":0},{"task_id":0,"height":3}]}`))
	f.Add([]byte(`{"items":[{"task_id":99,"height":0}]}`))
	f.Add([]byte(`{"items":[]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sol, err := ReadSolutionJSON(bytes.NewReader(data), in)
		if err != nil {
			return
		}
		seen := make(map[int]bool, len(sol.Items))
		for _, p := range sol.Items {
			if _, ok := in.TaskByID(p.Task.ID); !ok {
				t.Fatalf("decoder bound unknown task id %d", p.Task.ID)
			}
			if seen[p.Task.ID] {
				t.Fatalf("decoder accepted duplicate task id %d", p.Task.ID)
			}
			seen[p.Task.ID] = true
		}
		var buf bytes.Buffer
		if err := sol.WriteJSON(&buf); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := ReadSolutionJSON(&buf, in)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if back.Len() != sol.Len() || back.Weight() != sol.Weight() {
			t.Fatalf("round trip changed the solution")
		}
	})
}
