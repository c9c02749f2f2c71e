package model

import (
	"cmp"
	"encoding/binary"
	"io"
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
// normal-form order); Normalize sorts an instance's own tasks into that
// order. Servers solve the canonical instance rather than the as-received
// one, so every permutation of the same task set observes the same
// response bytes.

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

// compareCanonicalAs is compareCanonical for either task type.
func compareCanonicalAs[T Task | RingTask](a, b T) int { return compareCanonical(Task(a), Task(b)) }

// Normalize sorts the instance's tasks in place into sorted normal form.
// A caller that owns the instance, such as a server holding a freshly
// decoded request, uses it instead of Canonicalize to skip the copy.
func (in *Instance) Normalize() { slices.SortFunc(in.Tasks, compareCanonical) }

// Canonicalize returns a copy of the instance with tasks in sorted normal
// form (capacity slice shared — it is read-only throughout the library).
// The result compares equal, under AppendCanonical, to every task
// permutation of the receiver.
func (in *Instance) Canonicalize() *Instance {
	out := &Instance{Capacity: in.Capacity, Tasks: append([]Task(nil), in.Tasks...)}
	out.Normalize()
	return out
}

// canonicalEncoder builds the canonical encoding in buf. With w set it
// hands buf to w whenever the next word would not fit and once at the end,
// so the encoding streams through a buffer of fixed size; without w it
// grows buf to hold the whole encoding.
type canonicalEncoder struct {
	w   io.Writer
	buf []byte
	err error // the first error w returned
}

// minEncodeBuf is the smallest staging buffer a streamed encoding uses.
const minEncodeBuf = 64

func (e *canonicalEncoder) flush() {
	if len(e.buf) > 0 && e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// u64 appends v in fixed-width big-endian form.
func (e *canonicalEncoder) u64(v uint64) {
	if e.w != nil && cap(e.buf)-len(e.buf) < 8 {
		e.flush()
	}
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// encodeCanonical encodes a kind tag, the capacity profile in edge order,
// the task count and the tasks in the normal form of compareCanonical.
// Tasks already in normal form, as a canonical instance's are, are encoded
// as they stand; others are sorted in a copy.
func encodeCanonical[T Task | RingTask](e *canonicalEncoder, tag byte, capacity []int64, tasks []T) {
	e.buf = append(e.buf, tag)
	e.u64(uint64(len(capacity)))
	for _, c := range capacity {
		e.u64(uint64(c))
	}
	if !slices.IsSortedFunc(tasks, compareCanonicalAs[T]) {
		tasks = slices.Clone(tasks)
		slices.SortFunc(tasks, compareCanonicalAs[T])
	}
	e.u64(uint64(len(tasks)))
	for _, x := range tasks {
		t := Task(x)
		e.u64(uint64(int64(t.ID)))
		e.u64(uint64(int64(t.Start)))
		e.u64(uint64(int64(t.End)))
		e.u64(uint64(t.Demand))
		e.u64(uint64(t.Weight))
	}
}

// writeCanonical streams an encoding to w through buf.
func writeCanonical[T Task | RingTask](w io.Writer, buf []byte, tag byte, capacity []int64, tasks []T) error {
	if cap(buf) < minEncodeBuf {
		buf = make([]byte, 0, minEncodeBuf)
	}
	e := canonicalEncoder{w: w, buf: buf[:0]}
	encodeCanonical(&e, tag, capacity, tasks)
	e.flush()
	return e.err
}

// AppendCanonical appends the canonical encoding of the instance to b and
// returns the extended slice: a kind tag, the capacity profile in edge
// order, then the tasks in sorted normal form, all as fixed-width
// big-endian words. Instances with equal capacity profiles and equal task
// multisets produce identical bytes; any other pair differs.
func (in *Instance) AppendCanonical(b []byte) []byte {
	e := canonicalEncoder{buf: b}
	encodeCanonical(&e, 'P', in.Capacity, in.Tasks) // kind tag: path
	return e.buf
}

// WriteCanonical writes the canonical encoding of the instance, the bytes
// CanonicalBytes returns, to w in pieces of at most cap(buf) bytes staged in
// buf, and returns the first error w reports. A hasher that reuses buf
// never holds the encoding whole.
func (in *Instance) WriteCanonical(w io.Writer, buf []byte) error {
	return writeCanonical(w, buf, 'P', in.Capacity, in.Tasks)
}

// CanonicalBytes returns the canonical encoding of the instance.
func (in *Instance) CanonicalBytes() []byte {
	return in.AppendCanonical(make([]byte, 0, 9+8*(len(in.Capacity)+1+5*len(in.Tasks))))
}

// Normalize sorts the ring instance's tasks in place into sorted normal
// form.
func (r *RingInstance) Normalize() { slices.SortFunc(r.Tasks, compareCanonicalAs[RingTask]) }

// Canonicalize returns a copy of the ring instance with tasks in sorted
// normal form (capacity slice shared).
func (r *RingInstance) Canonicalize() *RingInstance {
	out := &RingInstance{Capacity: r.Capacity, Tasks: append([]RingTask(nil), r.Tasks...)}
	out.Normalize()
	return out
}

// AppendCanonical appends the canonical encoding of the ring instance to b:
// identical to Instance.AppendCanonical but under a distinct kind tag, so a
// path and a ring with the same numbers never collide.
func (r *RingInstance) AppendCanonical(b []byte) []byte {
	e := canonicalEncoder{buf: b}
	encodeCanonical(&e, 'R', r.Capacity, r.Tasks) // kind tag: ring
	return e.buf
}

// WriteCanonical is Instance.WriteCanonical for ring instances.
func (r *RingInstance) WriteCanonical(w io.Writer, buf []byte) error {
	return writeCanonical(w, buf, 'R', r.Capacity, r.Tasks)
}

// CanonicalBytes returns the canonical encoding of the ring instance.
func (r *RingInstance) CanonicalBytes() []byte {
	return r.AppendCanonical(make([]byte, 0, 9+8*(len(r.Capacity)+1+5*len(r.Tasks))))
}
