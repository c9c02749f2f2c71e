package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sapalloc/internal/saperr"
)

// FuzzReadInstanceJSON checks the instance decoders against refDecodeJSON,
// the encoding/json decode they replaced: for every input, ReadInstanceJSON,
// ReadRingJSON and DecodeJSON must accept exactly what the reference
// accepts and return deeply equal instances, and DecodeJSON must return the
// reference's error text, which is what /v1/solve answers 400 with. Inputs
// outside the plain grammar exercise the encoding/json fallback; the seeds
// include one of each kind. Accepted instances must also survive a
// WriteJSON round trip exactly — capacities, task fields and task order (the
// solvers' deterministic tie-breaks key on it) — and WriteJSON must write
// the plain grammar whenever the instance has tasks.
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
	var ring bytes.Buffer
	if err := (&RingInstance{
		Capacity: []int64{2, 3, 4},
		Tasks:    []RingTask{{ID: 5, Start: 2, End: 0, Demand: 1, Weight: 7}, {ID: 1, Start: 0, End: 1, Demand: 2, Weight: 0}},
	}).WriteJSON(&ring); err != nil {
		f.Fatal(err)
	}
	f.Add(ring.Bytes())
	f.Add([]byte(` { "tasks" : [ { "weight" : 4 , "demand" : 2 , "end" : 2 , "start" : 1 , "id" : -9223372036854775808 } ] ,
		"capacity" : [ 3 , 1099511627776 ] , "kind" : "path" } ` + "\t\r\n"))
	for _, doc := range fallbackDocs {
		if _, ok := scanPlain([]byte(doc)); ok {
			f.Fatalf("scanPlain accepts %s, which must take the encoding/json fallback", doc)
		}
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ReadInstanceJSON(bytes.NewReader(data))
		want, wantErr := refReadInstanceJSON(data)
		checkSame(t, "ReadInstanceJSON", in, err, want, wantErr)
		ring, err := ReadRingJSON(bytes.NewReader(data))
		wantRing, wantErr := refReadRingJSON(data)
		checkSame(t, "ReadRingJSON", ring, err, wantRing, wantErr)
		gotIn, gotRing, err := DecodeJSON(data)
		wantIn, wantRing, wantErr := refDecodeJSON(data)
		checkSame(t, "DecodeJSON path", gotIn, err, wantIn, wantErr)
		checkSame(t, "DecodeJSON ring", gotRing, err, wantRing, wantErr)
		if err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("DecodeJSON error %q, reference %q", err, wantErr)
		}
		if in == nil {
			return
		}
		var buf bytes.Buffer
		if err := in.WriteJSON(&buf); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if _, ok := scanPlain(buf.Bytes()); !ok && len(in.Tasks) > 0 {
			t.Fatalf("WriteJSON wrote a document outside the plain grammar:\n%s", buf.Bytes())
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

// fallbackDocs are documents outside the plain grammar, each valid JSON or
// nearly so, that the decoders must hand to encoding/json.
var fallbackDocs = []string{
	// Keys encoding/json matches case-insensitively.
	`{"kind":"path","Capacity":[4,8],"tasks":[{"ID":0,"start":0,"end":2,"demand":2,"weight":3}]}`,
	// An escaped key.
	`{"\u006bind":"path","capacity":[4],"tasks":[{"id":0,"start":0,"end":1,"demand":1,"weight":1}]}`,
	// Unknown fields, one of them nested.
	`{"kind":"path","capacity":[4],"tasks":[{"id":0,"start":0,"end":1,"demand":1,"weight":1,"note":"x"}]}`,
	`{"kind":"ring","capacity":[4,4,4],"tasks":[],"meta":{"a":[1,{"b":null}],"c":"\"}"}}`,
	// Repeated keys: the second "tasks" array decodes over the first, so its
	// task keeps the first one's weight.
	`{"kind":"path","capacity":[4],"capacity":[5,6],"tasks":[{"id":0,"start":0,"end":2,"demand":1,"weight":1}]}`,
	`{"kind":"path","capacity":[4],"tasks":[{"id":0,"start":0,"end":1,"demand":1,"weight":9}],"tasks":[{"id":3,"start":0,"end":1,"demand":2}]}`,
	`{"kind":"path","capacity":[4],"tasks":[{"id":0,"id":1,"start":0,"end":1,"demand":1,"weight":1}]}`,
	// Missing keys, an empty kind and a kind encoding/json rejects.
	`{"capacity":[4],"tasks":[{"id":0,"start":0,"end":1,"demand":1,"weight":1}]}`,
	`{"kind":"","capacity":[4],"tasks":[{"id":0,"start":0,"end":1,"demand":1}]}`,
	`{"kind":"tree","capacity":[4],"tasks":[]}`,
	// null where arrays or numbers go.
	`{"kind":"path","capacity":null,"tasks":null}`,
	`{"kind":"path","capacity":[4,null],"tasks":[]}`,
	`null`,
	// Number literals outside the plain grammar.
	`{"kind":"path","capacity":[1e2],"tasks":[]}`,
	`{"kind":"path","capacity":[1.0],"tasks":[]}`,
	`{"kind":"path","capacity":[4],"tasks":[{"id":-0,"start":0,"end":1,"demand":1,"weight":1}]}`,
	`{"kind":"path","capacity":[9223372036854775808],"tasks":[]}`,
	`{"kind":"path","capacity":[04],"tasks":[]}`,
	// A UTF-8 byte order mark, and bytes after the document.
	"\xef\xbb\xbf" + `{"kind":"path","capacity":[4],"tasks":[]}`,
	`{"kind":"path","capacity":[4],"tasks":[]} trailing`,
	`{"kind":"path","capacity":[4],"tasks":[]}{}`,
}

// checkSame fails t unless got and err agree with the reference's want and
// wantErr: both rejected, or both accepted with deeply equal instances.
func checkSame[T any](t *testing.T, name string, got *T, err error, want *T, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", name, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded %+v, reference %+v", name, got, want)
	}
}

// refDecodeJSON is the serving layer's decode as it stood before the plain
// scanner: a kind probe with json.Unmarshal, then the reader of that kind.
func refDecodeJSON(data []byte) (*Instance, *RingInstance, error) {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, nil, fmt.Errorf("decode request: %w", err)
	}
	switch probe.Kind {
	case "", "path":
		in, err := refReadInstanceJSON(data)
		return in, nil, err
	case "ring":
		r, err := refReadRingJSON(data)
		return nil, r, err
	default:
		return nil, nil, fmt.Errorf("decode request: unknown kind %q", probe.Kind)
	}
}

// refReadInstanceJSON is ReadInstanceJSON as it stood before the plain
// scanner, with one change: data must hold exactly one JSON document, where
// json.Decoder stopped after the first.
func refReadInstanceJSON(data []byte) (*Instance, error) {
	var doc instanceJSON
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode instance: %w", err)
	}
	if !json.Valid(data) {
		return nil, errors.New("decode instance: bytes after the document")
	}
	if doc.Kind != "" && doc.Kind != "path" {
		return nil, fmt.Errorf("decode instance: kind %q is not a path instance", doc.Kind)
	}
	in := &Instance{Capacity: doc.Capacity}
	for _, t := range doc.Tasks {
		in.Tasks = append(in.Tasks, Task{ID: t.ID, Start: t.Start, End: t.End, Demand: t.Demand, Weight: t.Weight})
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("decode instance: %w", err)
	}
	return in, nil
}

// refReadRingJSON is ReadRingJSON as refReadInstanceJSON is ReadInstanceJSON.
func refReadRingJSON(data []byte) (*RingInstance, error) {
	var doc ringJSON
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode ring instance: %w", err)
	}
	if !json.Valid(data) {
		return nil, errors.New("decode ring instance: bytes after the document")
	}
	if doc.Kind != "ring" {
		return nil, fmt.Errorf("decode ring instance: kind %q is not a ring instance", doc.Kind)
	}
	r := &RingInstance{Capacity: doc.Capacity}
	for _, t := range doc.Tasks {
		r.Tasks = append(r.Tasks, RingTask{ID: t.ID, Start: t.Start, End: t.End, Demand: t.Demand, Weight: t.Weight})
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("decode ring instance: %w", err)
	}
	return r, nil
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
