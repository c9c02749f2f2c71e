package window

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzWindowJSON hardens the windowed-instance decoder, mirroring
// model.FuzzReadInstanceJSON: arbitrary bytes must never panic, and anything
// accepted must validate, give every task at least one start offset, and
// survive an exact round trip.
func FuzzWindowJSON(f *testing.F) {
	var seed bytes.Buffer
	if err := (&Instance{
		Capacity: []int64{4, 8, 8},
		Tasks:    []Task{{ID: 0, Release: 0, Deadline: 3, Length: 2, Demand: 2, Weight: 3}},
	}).WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"kind":"window","capacity":[],"tasks":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"kind":"path","capacity":[4],"tasks":[]}`))
	f.Add([]byte(`{"kind":"window","capacity":[0],"tasks":[]}`))
	f.Add([]byte(`{"kind":"window","capacity":[2],"tasks":[{"id":0,"release":0,"deadline":3,"length":2,"demand":1,"weight":1}]}`))
	f.Add([]byte(`{"kind":"window","capacity":[5,5],"tasks":[{"id":0,"release":1,"deadline":0,"length":1,"demand":1,"weight":1}]}`))
	f.Add([]byte(`{"kind":"window","capacity":[4,4,4],"tasks":[{"id":0,"release":1,"deadline":2,"length":9223372036854775807,"demand":1,"weight":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid instance: %v", err)
		}
		for i, tk := range in.Tasks {
			if tk.Offsets() < 1 {
				t.Fatalf("task %d accepted with %d offsets: %+v", i, tk.Offsets(), tk)
			}
		}
		var buf bytes.Buffer
		if err := in.WriteJSON(&buf); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if len(back.Tasks) != len(in.Tasks) || len(back.Capacity) != len(in.Capacity) {
			t.Fatalf("round trip changed shape")
		}
		for i := range back.Tasks {
			if back.Tasks[i] != in.Tasks[i] {
				t.Fatalf("round trip changed task %d: %+v != %+v", i, back.Tasks[i], in.Tasks[i])
			}
		}
	})
}

// FuzzWindowExact checks the exact search's branching over start offsets
// against bruteForce, the only independent windowed engine: on tiny
// instances drawn like TestSolveExactMatchesBruteForce's, SolveExact must
// return a feasible solution whose weight is the brute-force optimum.
func FuzzWindowExact(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		in := randomWindowed(r, 2+r.Intn(3), 1+r.Intn(4), 2)
		got, err := SolveExact(in, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := Valid(in, got); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := bruteForce(in); got.Weight() != want {
			t.Fatalf("seed %d: exact %d != brute %d\n%+v", seed, got.Weight(), want, in)
		}
	})
}
