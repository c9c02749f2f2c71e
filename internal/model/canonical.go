package model

import (
	"cmp"
	"encoding/binary"
	"slices"
)

// Canonical encoding. The serving layer caches solve results keyed by the
// *instance*, not by the bytes the client happened to send: two requests
// that describe the same instance — same capacity profile, same task
// multiset — must map to the same key regardless of JSON field order,
// whitespace, or task order. The encoding below is that key material: a
// fixed-width binary form of the capacity profile followed by the tasks in
// sorted normal form. It is deterministic, injective on canonicalized
// instances, and cheap (one pass + one sort).
//
// Canonicalize* returns the instance the encoding describes (tasks in
// normal-form order). Servers solve the canonical instance rather than the
// as-received one, so every permutation of the same task set observes the
// same response bytes.

// compareCanonical orders tasks into the sorted normal form: by interval,
// then demand, then weight, then ID. IDs are unique (Validate), so the
// order is total.
func compareCanonical(a, b Task) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	if c := cmp.Compare(a.End, b.End); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Demand, b.Demand); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Weight, b.Weight); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// compareCanonicalRing is compareCanonical for ring tasks.
func compareCanonicalRing(a, b RingTask) int { return compareCanonical(Task(a), Task(b)) }

// Canonicalize returns a copy of the instance with tasks in sorted normal
// form (capacity slice shared — it is read-only throughout the library).
// The result compares equal, under AppendCanonical, to every task
// permutation of the receiver.
func (in *Instance) Canonicalize() *Instance {
	out := &Instance{Capacity: in.Capacity, Tasks: append([]Task(nil), in.Tasks...)}
	slices.SortFunc(out.Tasks, compareCanonical)
	return out
}

// appendU64 appends v in fixed-width big-endian form.
func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

// appendTasksCanonical appends the task count and the tasks in the normal
// form that compare sorts them into. Tasks already in normal form, as a
// canonical instance's are, are encoded as they stand; others are sorted in
// a copy.
func appendTasksCanonical[T Task | RingTask](b []byte, tasks []T, compare func(a, b T) int) []byte {
	if !slices.IsSortedFunc(tasks, compare) {
		tasks = slices.Clone(tasks)
		slices.SortFunc(tasks, compare)
	}
	b = appendU64(b, uint64(len(tasks)))
	for _, x := range tasks {
		t := Task(x)
		b = appendU64(b, uint64(int64(t.ID)))
		b = appendU64(b, uint64(int64(t.Start)))
		b = appendU64(b, uint64(int64(t.End)))
		b = appendU64(b, uint64(t.Demand))
		b = appendU64(b, uint64(t.Weight))
	}
	return b
}

// AppendCanonical appends the canonical encoding of the instance to b and
// returns the extended slice: a kind tag, the capacity profile in edge
// order, then the tasks in sorted normal form, all as fixed-width
// big-endian words. Instances with equal capacity profiles and equal task
// multisets produce identical bytes; any other pair differs.
func (in *Instance) AppendCanonical(b []byte) []byte {
	b = append(b, 'P') // kind tag: path
	b = appendU64(b, uint64(len(in.Capacity)))
	for _, c := range in.Capacity {
		b = appendU64(b, uint64(c))
	}
	return appendTasksCanonical(b, in.Tasks, compareCanonical)
}

// CanonicalBytes returns the canonical encoding of the instance.
func (in *Instance) CanonicalBytes() []byte {
	return in.AppendCanonical(make([]byte, 0, 9+8*(len(in.Capacity)+1+5*len(in.Tasks))))
}

// Canonicalize returns a copy of the ring instance with tasks in sorted
// normal form (capacity slice shared).
func (r *RingInstance) Canonicalize() *RingInstance {
	out := &RingInstance{Capacity: r.Capacity, Tasks: append([]RingTask(nil), r.Tasks...)}
	slices.SortFunc(out.Tasks, compareCanonicalRing)
	return out
}

// AppendCanonical appends the canonical encoding of the ring instance to b:
// identical to Instance.AppendCanonical but under a distinct kind tag, so a
// path and a ring with the same numbers never collide.
func (r *RingInstance) AppendCanonical(b []byte) []byte {
	b = append(b, 'R') // kind tag: ring
	b = appendU64(b, uint64(len(r.Capacity)))
	for _, c := range r.Capacity {
		b = appendU64(b, uint64(c))
	}
	return appendTasksCanonical(b, r.Tasks, compareCanonicalRing)
}

// CanonicalBytes returns the canonical encoding of the ring instance.
func (r *RingInstance) CanonicalBytes() []byte {
	return r.AppendCanonical(make([]byte, 0, 9+8*(len(r.Capacity)+1+5*len(r.Tasks))))
}
