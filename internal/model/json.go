package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"sapalloc/internal/saperr"
)

// instanceJSON is the on-disk representation of a path instance.
type instanceJSON struct {
	Kind     string     `json:"kind"` // "path"
	Capacity []int64    `json:"capacity"`
	Tasks    []taskJSON `json:"tasks"`
}

type taskJSON struct {
	ID     int   `json:"id"`
	Start  int   `json:"start"`
	End    int   `json:"end"`
	Demand int64 `json:"demand"`
	Weight int64 `json:"weight"`
}

type ringJSON struct {
	Kind     string     `json:"kind"` // "ring"
	Capacity []int64    `json:"capacity"`
	Tasks    []taskJSON `json:"tasks"`
}

// WriteJSON serialises the instance in the library's interchange format.
func (in *Instance) WriteJSON(w io.Writer) error {
	doc := instanceJSON{Kind: "path", Capacity: in.Capacity}
	for _, t := range in.Tasks {
		doc.Tasks = append(doc.Tasks, taskJSON{ID: t.ID, Start: t.Start, End: t.End, Demand: t.Demand, Weight: t.Weight})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadInstanceJSON parses a path instance written by WriteJSON and validates
// it. The reader must hold exactly one JSON document: bytes other than
// whitespace after it are an error.
func ReadInstanceJSON(r io.Reader) (*Instance, error) {
	data, err := readAll(r, false)
	if err != nil {
		return nil, err
	}
	return DecodeInstanceJSON(data)
}

// DecodeInstanceJSON is ReadInstanceJSON for a document held whole in
// data, which it reads without copying; the instance keeps no reference
// into data.
func DecodeInstanceJSON(data []byte) (*Instance, error) {
	doc, err := decodeDoc(data, false)
	if err != nil {
		return nil, err
	}
	return doc.path()
}

// WriteJSON serialises the ring instance.
func (r *RingInstance) WriteJSON(w io.Writer) error {
	doc := ringJSON{Kind: "ring", Capacity: r.Capacity}
	for _, t := range r.Tasks {
		doc.Tasks = append(doc.Tasks, taskJSON{ID: t.ID, Start: t.Start, End: t.End, Demand: t.Demand, Weight: t.Weight})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadRingJSON parses a ring instance written by RingInstance.WriteJSON and
// validates it. Like ReadInstanceJSON it accepts exactly one JSON document.
func ReadRingJSON(rd io.Reader) (*RingInstance, error) {
	data, err := readAll(rd, true)
	if err != nil {
		return nil, err
	}
	doc, err := decodeDoc(data, true)
	if err != nil {
		return nil, err
	}
	return doc.ring()
}

// DecodeJSON decodes and validates one instance document of either kind,
// held whole in data: kind "ring" yields a ring instance, kind "path" or no
// kind a path instance. Exactly one of the instances is non-nil when err is
// nil. It is the reader for callers that accept both kinds, such as the
// serving layer.
func DecodeJSON(data []byte) (*Instance, *RingInstance, error) {
	doc, ok := scanPlain(data)
	if !ok {
		// The kind probe comes first so that its errors, not those of
		// the full decode, describe a malformed document.
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(data, &probe); err != nil {
			return nil, nil, fmt.Errorf("decode request: %w", err)
		}
		switch probe.Kind {
		case "", "path", "ring":
		default:
			return nil, nil, fmt.Errorf("decode request: unknown kind %q", probe.Kind)
		}
		var err error
		if doc, err = unmarshalDoc(data, probe.Kind == "ring"); err != nil {
			return nil, nil, err
		}
	}
	if doc.kind == "ring" {
		r, err := doc.ring()
		return nil, r, err
	}
	in, err := doc.path()
	return in, nil, err
}

// instanceDoc is a decoded instance document before validation.
type instanceDoc struct {
	kind     string
	capacity []int64
	tasks    []Task
}

// readAll reads all of r for the decode of a path or ring instance, which
// selects the error text.
func readAll(r io.Reader, ring bool) ([]byte, error) {
	// A bytes.Reader writes itself into the buffer in one call, so the
	// buffer is allocated once, at the document's size.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("%s: %w", decodeOp(ring), err)
	}
	return buf.Bytes(), nil
}

// decodeDoc decodes data as one instance document of the kind the caller
// reads, which selects the error texts.
func decodeDoc(data []byte, ring bool) (instanceDoc, error) {
	if doc, ok := scanPlain(data); ok {
		return doc, nil
	}
	return unmarshalDoc(data, ring)
}

// decodeOp names the decode of a path or ring instance in errors.
func decodeOp(ring bool) string {
	if ring {
		return "decode ring instance"
	}
	return "decode instance"
}

// unmarshalDoc decodes data with encoding/json: the path for documents
// outside the plain grammar, and the source of every syntax and type error.
// Ring documents decode through ringJSON, whose name those errors carry.
func unmarshalDoc(data []byte, ring bool) (instanceDoc, error) {
	var raw instanceJSON
	var v any = &raw
	if ring {
		v = (*ringJSON)(&raw)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return instanceDoc{}, fmt.Errorf("%s: %w", decodeOp(ring), err)
	}
	doc := instanceDoc{kind: raw.Kind, capacity: raw.Capacity}
	for _, t := range raw.Tasks {
		doc.tasks = append(doc.tasks, Task(t))
	}
	return doc, nil
}

// path returns the document as a validated path instance.
func (d instanceDoc) path() (*Instance, error) {
	if d.kind != "" && d.kind != "path" {
		return nil, fmt.Errorf("decode instance: kind %q is not a path instance", d.kind)
	}
	in := &Instance{Capacity: d.capacity, Tasks: d.tasks}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("decode instance: %w", err)
	}
	return in, nil
}

// ring returns the document as a validated ring instance.
func (d instanceDoc) ring() (*RingInstance, error) {
	if d.kind != "ring" {
		return nil, fmt.Errorf("decode ring instance: kind %q is not a ring instance", d.kind)
	}
	r := &RingInstance{Capacity: d.capacity}
	if len(d.tasks) > 0 {
		r.Tasks = make([]RingTask, len(d.tasks))
		for i, t := range d.tasks {
			r.Tasks[i] = RingTask(t)
		}
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("decode ring instance: %w", err)
	}
	return r, nil
}

// The plain grammar is the only JSON scanPlain reads: one object with
// exactly the keys "kind" ("path" or "ring"), "capacity" (an array of
// integers) and "tasks" (an array of objects with exactly the keys "id",
// "start", "end", "demand" and "weight", each an integer); keys in any
// order, JSON whitespace anywhere, no escapes, and integer literals that fit
// int64 and are neither "-0" nor written with a leading zero. WriteJSON
// writes it for every instance with at least one edge and one task, and so
// do sapgen and the benchmark's clients, which call WriteJSON. scanPlain
// reports any other input as not plain and never errors; callers then decode
// the input with encoding/json, which decides what else is accepted and
// words every error. On plain input both decodes yield the same document,
// which FuzzReadInstanceJSON checks.

// maxHint caps the element count scanPlain preallocates from a count of
// separator bytes, so a body of braces or commas cannot make it allocate
// more than a few MiB before the grammar check fails; longer arrays grow by
// append.
const maxHint = 1 << 16

// scanPlain reads data as a plain instance document in one pass.
func scanPlain(data []byte) (instanceDoc, bool) {
	s := plainScanner{data: data}
	var doc instanceDoc
	if !s.consume('{') {
		return doc, false
	}
	var seen uint8
	for more := true; more; {
		key, ok := s.key()
		if !ok {
			return doc, false
		}
		var bit uint8
		switch string(key) {
		case "kind":
			bit = 1
			var v []byte
			if v, ok = s.str(); ok {
				switch string(v) {
				case "path":
					doc.kind = "path"
				case "ring":
					doc.kind = "ring"
				default:
					ok = false
				}
			}
		case "capacity":
			bit = 2
			doc.capacity, ok = s.ints()
		case "tasks":
			bit = 4
			doc.tasks, ok = s.tasks()
		default:
			ok = false
		}
		if !ok || seen&bit != 0 {
			return doc, false
		}
		seen |= bit
		if more, ok = s.next('}'); !ok {
			return doc, false
		}
	}
	s.ws()
	return doc, seen == 7 && s.i == len(data)
}

// plainScanner is scanPlain's cursor over the document bytes.
type plainScanner struct {
	data []byte
	i    int
}

// ws skips JSON whitespace.
func (s *plainScanner) ws() {
	i, data := s.i, s.data
	for i < len(data) {
		if c := data[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			break
		}
		i++
	}
	s.i = i
}

// consume skips whitespace and then c, reporting whether c came next.
func (s *plainScanner) consume(c byte) bool {
	s.ws()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// next consumes the separator after an element of an array or object
// closed by end: more is true after a comma and false after end, and ok is
// false when neither comes next.
func (s *plainScanner) next(end byte) (more, ok bool) {
	if s.consume(',') {
		return true, true
	}
	return false, s.consume(end)
}

// str scans a string and returns the bytes between its quotes. It does not
// interpret escapes or reject control bytes: every caller compares the
// result with a literal that contains neither, so a string holding either
// never matches.
func (s *plainScanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	n := bytes.IndexByte(s.data[s.i:], '"')
	if n < 0 {
		return nil, false
	}
	v := s.data[s.i : s.i+n]
	s.i += n + 1
	return v, true
}

// key scans an object key and the colon after it.
func (s *plainScanner) key() ([]byte, bool) {
	k, ok := s.str()
	return k, ok && s.consume(':')
}

// integer scans an integer literal that fits int64.
func (s *plainScanner) integer() (int64, bool) {
	s.ws()
	neg := s.i < len(s.data) && s.data[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var u uint64
	for s.i < len(s.data) && s.data[s.i]-'0' <= 9 {
		u = u*10 + uint64(s.data[s.i]-'0')
		s.i++
	}
	switch n := s.i - start; {
	case n == 0 || n > 19: // no digits, or more than any int64 has
		return 0, false
	case s.data[start] == '0' && (n > 1 || neg): // leading zero, or -0
		return 0, false
	case neg && u <= 1<<63:
		return int64(-u), true
	case !neg && u <= math.MaxInt64:
		return int64(u), true
	}
	return 0, false
}

// ints scans an array of integers. An empty array yields an empty, non-nil
// slice, as encoding/json's decode does.
func (s *plainScanner) ints() ([]int64, bool) {
	if !s.consume('[') {
		return nil, false
	}
	end := bytes.IndexByte(s.data[s.i:], ']')
	if end < 0 {
		return nil, false
	}
	out := make([]int64, 0, min(bytes.Count(s.data[s.i:s.i+end], []byte{','})+1, maxHint))
	if s.consume(']') {
		return out, true
	}
	for more := true; more; {
		v, ok := s.integer()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if more, ok = s.next(']'); !ok {
			return nil, false
		}
	}
	return out, true
}

// tasks scans an array of task objects. An empty array yields nil, as
// unmarshalDoc's copy of the decoded tasks does.
func (s *plainScanner) tasks() ([]Task, bool) {
	if !s.consume('[') {
		return nil, false
	}
	if s.consume(']') {
		return nil, true
	}
	// A plain document has no '{' after this point but the tasks'.
	out := make([]Task, 0, min(bytes.Count(s.data[s.i:], []byte{'{'}), maxHint))
	for more := true; more; {
		t, ok := s.task()
		if !ok {
			return nil, false
		}
		out = append(out, t)
		if more, ok = s.next(']'); !ok {
			return nil, false
		}
	}
	return out, true
}

// task scans one task object.
func (s *plainScanner) task() (Task, bool) {
	var t Task
	if !s.consume('{') {
		return t, false
	}
	var seen uint8
	for more := true; more; {
		key, ok := s.key()
		if !ok {
			return t, false
		}
		v, ok := s.integer()
		if !ok {
			return t, false
		}
		var bit uint8
		switch string(key) {
		case "id":
			bit, t.ID = 1, int(v)
		case "start":
			bit, t.Start = 2, int(v)
		case "end":
			bit, t.End = 4, int(v)
		case "demand":
			bit, t.Demand = 8, v
		case "weight":
			bit, t.Weight = 16, v
		default:
			return t, false
		}
		// The int fields must also fit int where it is 32 bits wide.
		if seen&bit != 0 || (bit < 8 && int64(int(v)) != v) {
			return t, false
		}
		seen |= bit
		if more, ok = s.next('}'); !ok {
			return t, false
		}
	}
	return t, seen == 31
}

// solutionJSON is the on-disk representation of a SAP solution.
type solutionJSON struct {
	Items []placementJSON `json:"items"`
}

type placementJSON struct {
	TaskID int   `json:"task_id"`
	Height int64 `json:"height"`
}

// WriteJSON serialises the solution as (task id, height) pairs.
func (s *Solution) WriteJSON(w io.Writer) error {
	var doc solutionJSON
	for _, p := range s.Items {
		doc.Items = append(doc.Items, placementJSON{TaskID: p.Task.ID, Height: p.Height})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadSolutionJSON parses a solution written by Solution.WriteJSON, binding
// task IDs to the tasks of the given instance. It is a trust boundary like
// ReadInstanceJSON: unknown and duplicate task ids are rejected with typed
// saperr.ErrInfeasibleInput errors — a duplicate would double-count the
// task's weight and violate the schedule's disjointness invariant before
// any validator runs.
func ReadSolutionJSON(r io.Reader, in *Instance) (*Solution, error) {
	var doc solutionJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode solution: %w", err)
	}
	s := &Solution{}
	seen := make(map[int]bool, len(doc.Items))
	for _, p := range doc.Items {
		t, ok := in.TaskByID(p.TaskID)
		if !ok {
			return nil, fmt.Errorf("decode solution: %w", saperr.Input("task id %d not in instance", p.TaskID))
		}
		if seen[p.TaskID] {
			return nil, fmt.Errorf("decode solution: %w", saperr.Input("duplicate task id %d", p.TaskID))
		}
		seen[p.TaskID] = true
		s.Items = append(s.Items, Placement{Task: t, Height: p.Height})
	}
	return s, nil
}
