package serve

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"sapalloc/internal/model"
	"sapalloc/internal/saperr"
)

// A /v1/solve answer is kept, in the cache and in the store, as a packed
// record, and appendBody writes the JSON body from it for every response:
// misses, cache and store hits and deduplicated followers alike. The
// record is about a tenth of the size of its body. Layout:
//
//	byte     answerVersion
//	byte     kind, an index into answerKinds
//	byte     winner, an index into answerWinners
//	byte     degraded (0 or 1)
//	uvarint  tasks, weight, shards (each as uint64)
//	uvarint  n, the number of items
//	[ring]   ⌈n/8⌉ bytes: bit i%8 of byte i/8 is set when item i is ccw
//	n ×      uvarint ID − previous ID (from 0, as uint64), uvarint height
//
// Items are in task-ID order. Every integer is written as the uint64 of
// its two's complement, so it round-trips whatever its sign.
const answerVersion = 1

// answerKinds and answerWinners are the fixed tables the kind and winner
// bytes index: the two instance kinds, then the names of core.Arm and of
// ringsap.Arm. Stored records index them, so entries are only appended.
var (
	answerKinds   = [...]string{"path", "ring"}
	answerWinners = [...]string{
		"small/strip-pack", "medium/almost-uniform", "large/rectangle-packing",
		"path", "knapsack-through-cut",
	}
)

const (
	kindPath = 0
	kindRing = 1
)

// errAnswer reports a record that is not a packed answer, such as a store
// value in the format that held the JSON body.
var errAnswer = errors.New("not a packed answer")

// answerHeader is a packed answer's fixed part.
type answerHeader struct {
	kind, winner          byte
	degraded              bool
	tasks, weight, shards int64
	n                     int
}

// appendHeader appends the header of an answer with the named winner.
func appendHeader(dst []byte, h answerHeader, winner string) ([]byte, error) {
	w := slices.Index(answerWinners[:], winner)
	if w < 0 {
		return nil, fmt.Errorf("%w: winner %q has no answer code", saperr.ErrInternal, winner)
	}
	var degraded byte
	if h.degraded {
		degraded = 1
	}
	dst = append(dst, answerVersion, h.kind, byte(w), degraded)
	for _, v := range [...]int64{h.tasks, h.weight, h.shards, int64(h.n)} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst, nil
}

// appendItem appends one item after the item with ID prev (0 for the
// first).
func appendItem(dst []byte, prev, id int, height int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(id)-uint64(prev))
	return binary.AppendUvarint(dst, uint64(height))
}

// appendPathAnswer appends the packed answer of a path solve. It sorts
// items by task ID in place.
func appendPathAnswer(dst []byte, winner string, degraded bool, tasks, shards int, items []model.Placement) ([]byte, error) {
	slices.SortFunc(items, func(a, b model.Placement) int { return cmp.Compare(a.Task.ID, b.Task.ID) })
	h := answerHeader{kind: kindPath, degraded: degraded, tasks: int64(tasks), shards: int64(shards), n: len(items)}
	for _, pl := range items {
		h.weight += pl.Task.Weight
	}
	dst, err := appendHeader(dst, h, winner)
	if err != nil {
		return nil, err
	}
	prev := 0
	for _, pl := range items {
		dst = appendItem(dst, prev, pl.Task.ID, pl.Height)
		prev = pl.Task.ID
	}
	return dst, nil
}

// appendRingAnswer is appendPathAnswer for a ring solve, whose answers
// carry no shard count.
func appendRingAnswer(dst []byte, winner string, degraded bool, tasks int, items []model.RingPlacement) ([]byte, error) {
	slices.SortFunc(items, func(a, b model.RingPlacement) int { return cmp.Compare(a.Task.ID, b.Task.ID) })
	h := answerHeader{kind: kindRing, degraded: degraded, tasks: int64(tasks), n: len(items)}
	for _, pl := range items {
		h.weight += pl.Task.Weight
	}
	dst, err := appendHeader(dst, h, winner)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(items); i += 8 {
		var bits byte
		for j, pl := range items[i:min(i+8, len(items))] {
			if pl.Orientation != model.Clockwise {
				bits |= 1 << j
			}
		}
		dst = append(dst, bits)
	}
	prev := 0
	for _, pl := range items {
		dst = appendItem(dst, prev, pl.Task.ID, pl.Height)
		prev = pl.Task.ID
	}
	return dst, nil
}

// readHeader parses a packed answer's header and returns it with its ring
// orientation bits (nil for a path) and the bytes its items take.
func readHeader(rec []byte) (h answerHeader, ccw, items []byte, err error) {
	if len(rec) < 4 || rec[0] != answerVersion || int(rec[1]) >= len(answerKinds) ||
		int(rec[2]) >= len(answerWinners) || rec[3] > 1 {
		return h, nil, nil, errAnswer
	}
	h.kind, h.winner, h.degraded = rec[1], rec[2], rec[3] == 1
	rest := rec[4:]
	var v [4]uint64
	for i := range v {
		var n int
		if v[i], n = binary.Uvarint(rest); n <= 0 {
			return h, nil, nil, errAnswer
		}
		rest = rest[n:]
	}
	h.tasks, h.weight, h.shards = int64(v[0]), int64(v[1]), int64(v[2])
	// Each item takes at least two bytes, which bounds n before it is
	// used as a count.
	if v[3] > uint64(len(rest))/2 {
		return h, nil, nil, errAnswer
	}
	h.n = int(v[3])
	if h.kind == kindRing {
		nb := (h.n + 7) / 8
		if len(rest) < nb {
			return h, nil, nil, errAnswer
		}
		ccw, rest = rest[:nb], rest[nb:]
	}
	return h, ccw, rest, nil
}

// readAnswer is readHeader for a record read from the store: it also
// checks that the item bytes hold exactly n items.
func readAnswer(rec []byte) (answerHeader, error) {
	h, _, items, err := readHeader(rec)
	if err != nil {
		return h, err
	}
	for range 2 * h.n {
		_, n := binary.Uvarint(items)
		if n <= 0 {
			return h, errAnswer
		}
		items = items[n:]
	}
	if len(items) != 0 {
		return h, errAnswer
	}
	return h, nil
}

// appendBody appends the /v1/solve body of a packed answer to dst: exactly
// what json.Marshal writes for its solveResponseDoc, then a newline. It
// fails with errAnswer on a record that is not a packed answer.
func appendBody(dst, rec []byte) ([]byte, error) {
	h, ccw, items, err := readHeader(rec)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `{"kind":"`...)
	dst = append(dst, answerKinds[h.kind]...)
	dst = append(dst, `","weight":`...)
	dst = strconv.AppendInt(dst, h.weight, 10)
	dst = append(dst, `,"winner":"`...)
	dst = append(dst, answerWinners[h.winner]...)
	dst = append(dst, `","scheduled":`...)
	dst = strconv.AppendInt(dst, int64(h.n), 10)
	dst = append(dst, `,"tasks":`...)
	dst = strconv.AppendInt(dst, h.tasks, 10)
	if h.degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if h.shards != 0 {
		dst = append(dst, `,"shards":`...)
		dst = strconv.AppendInt(dst, h.shards, 10)
	}
	dst = append(dst, `,"items":[`...)
	var id uint64
	for i := range h.n {
		d, n := binary.Uvarint(items)
		if n <= 0 {
			return dst, errAnswer
		}
		items = items[n:]
		height, n := binary.Uvarint(items)
		if n <= 0 {
			return dst, errAnswer
		}
		items = items[n:]
		id += d
		if i > 0 {
			dst = append(dst, `,{"task_id":`...)
		} else {
			dst = append(dst, `{"task_id":`...)
		}
		dst = strconv.AppendInt(dst, int64(id), 10)
		dst = append(dst, `,"height":`...)
		dst = strconv.AppendInt(dst, int64(height), 10)
		switch {
		case h.kind != kindRing:
			dst = append(dst, '}')
		case ccw[i/8]&(1<<(i%8)) != 0:
			dst = append(dst, `,"orientation":"ccw"}`...)
		default:
			dst = append(dst, `,"orientation":"cw"}`...)
		}
	}
	if len(items) != 0 {
		return dst, errAnswer
	}
	return append(dst, "]}\n"...), nil
}
