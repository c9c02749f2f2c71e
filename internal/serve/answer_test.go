package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"runtime/debug"
	"slices"
	"testing"

	"sapalloc/internal/core"
	"sapalloc/internal/model"
	"sapalloc/internal/ringsap"
	"sapalloc/internal/scratch"
)

// wantBody is the body the handler wrote before answers were packed:
// json.Marshal of the document, then a newline.
func wantBody(t *testing.T, doc solveResponseDoc) []byte {
	t.Helper()
	if doc.Items == nil {
		doc.Items = []solveItemDoc{}
	}
	slices.SortFunc(doc.Items, func(a, b solveItemDoc) int { return cmp.Compare(a.TaskID, b.TaskID) })
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// FuzzAnswerBody renders random path and ring answers from their packed
// records and compares each body with json.Marshal of its
// solveResponseDoc plus a newline, directly and after the store codec.
// The answers have negative and large task IDs, heights near 2^62 and of
// either sign, degraded flags, shard counts and no items at all.
//
// Wired into check.sh fuzz and the CI fuzz-smoke job.
func FuzzAnswerBody(f *testing.F) {
	f.Add(int64(1), uint16(12), uint8(0))
	f.Add(int64(2), uint16(400), uint8(1))
	f.Add(int64(3), uint16(0), uint8(2))
	f.Add(int64(-4), uint16(9), uint8(7))
	f.Add(int64(5), uint16(33), uint8(13))
	f.Add(int64(8), uint16(20), uint8(4))
	f.Add(int64(9), uint16(64), uint8(14))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, mode uint8) {
		rng := splitMix(uint64(seed))
		n := int(nRaw % 1024)
		ring := mode&1 != 0
		doc := solveResponseDoc{Kind: "path", Tasks: n + int(rng()%8), Degraded: mode&2 != 0, Scheduled: n}
		// Distinct IDs from a base that may be negative or near the ends
		// of the int range.
		id := int(rng())
		switch mode >> 2 % 3 {
		case 0:
			id = int(rng() % 64)
		case 1:
			id = -int(rng() % 1000)
		}
		var path []model.Placement
		var rings []model.RingPlacement
		for range n {
			id += 1 + int(rng()%5)
			var h int64
			switch rng() % 3 {
			case 0:
				h = int64(rng() % 1000)
			case 1:
				h = 1<<62 - int64(rng()%1000)
			default:
				h = int64(rng())
			}
			tk := model.Task{ID: id, Start: 0, End: 1, Demand: 1, Weight: int64(rng() % 1000)}
			doc.Weight += tk.Weight
			item := solveItemDoc{TaskID: id, Height: h}
			if ring {
				o := model.Orientation(rng() % 2)
				item.Orientation = o.String()
				rings = append(rings, model.RingPlacement{Task: model.RingTask(tk), Orientation: o, Height: h})
			} else {
				path = append(path, model.Placement{Task: tk, Height: h})
			}
			doc.Items = append(doc.Items, item)
		}
		// The packers take items in any order.
		shuffle := func(swap func(i, j int)) {
			for i := n - 1; i > 0; i-- {
				swap(i, int(rng()%uint64(i+1)))
			}
		}
		var rec []byte
		var err error
		if ring {
			doc.Kind = "ring"
			doc.Winner = ringsap.Arm(rng() % 2).String()
			shuffle(func(i, j int) { rings[i], rings[j] = rings[j], rings[i] })
			rec, err = appendRingAnswer(nil, doc.Winner, doc.Degraded, doc.Tasks, rings)
		} else {
			doc.Winner = core.Arm(rng() % 3).String()
			if mode&4 != 0 {
				doc.Shards = []int{1, 2, 32, 1000}[rng()%4]
			}
			shuffle(func(i, j int) { path[i], path[j] = path[j], path[i] })
			rec, err = appendPathAnswer(nil, doc.Winner, doc.Degraded, doc.Tasks, doc.Shards, path)
		}
		if err != nil {
			t.Fatal(err)
		}
		want := wantBody(t, doc)
		got, err := appendBody([]byte("prefix"), rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("rendered body differs from json.Marshal:\n got %s\nwant %s", got[len("prefix"):], want)
		}
		if doc.Degraded {
			return
		}
		raw, ok := encodeStored(&cachedResponse{rec: rec, tasks: doc.Tasks})
		if !ok {
			t.Fatal("encodeStored refused a healthy answer")
		}
		v, cost, err := decodeStored(raw)
		if err != nil {
			t.Fatalf("decodeStored: %v", err)
		}
		if resp := v.(*cachedResponse); resp.tasks != doc.Tasks || cost != int64(doc.Tasks) {
			t.Fatalf("decoded %d tasks at cost %d, want %d", resp.tasks, cost, doc.Tasks)
		}
		if got, _ := appendBody(nil, v.(*cachedResponse).rec); !bytes.Equal(got, want) {
			t.Fatalf("stored answer renders\n%s\nwant\n%s", got, want)
		}
		// A record cut short fails to parse: in its header, or by a byte.
		for _, cut := range []int{0, 3, 4, 5, 6, 8, 12, len(rec) - 1} {
			if cut >= 0 && cut < len(rec) {
				if _, err := readAnswer(rec[:cut]); err == nil {
					t.Fatalf("a %d-byte prefix of a %d-byte record parses", cut, len(rec))
				}
			}
		}
	})
}

// TestAnswerWinnerTable checks that every arm name a solve can report has
// a code in the winner table.
func TestAnswerWinnerTable(t *testing.T) {
	arms := []string{
		core.ArmSmall.String(), core.ArmMedium.String(), core.ArmLarge.String(),
		ringsap.ArmPath.String(), ringsap.ArmKnapsack.String(),
	}
	for _, name := range arms {
		if !slices.Contains(answerWinners[:], name) {
			t.Errorf("winner %q is not in the answer table", name)
		}
	}
	if len(arms) != len(answerWinners) {
		t.Errorf("%d arm names, %d table entries", len(arms), len(answerWinners))
	}
}

// TestAllocsRenderAnswer pins that rendering a cached answer allocates
// nothing once the buffer pool holds a buffer of its size: a 400-item
// path answer with heights up to 2^40.
func TestAllocsRenderAnswer(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	items := make([]model.Placement, 400)
	for i := range items {
		items[i] = model.Placement{Task: model.Task{ID: 3 * i, Start: 0, End: 1, Demand: 1, Weight: 7}, Height: int64(i) << 30}
	}
	rec, err := appendPathAnswer(nil, core.ArmMedium.String(), false, 400, 0, items)
	if err != nil {
		t.Fatal(err)
	}
	render := func() {
		buf := bodyPool.Get().(*bodyBuf)
		body, err := appendBody(buf.b[:0], rec)
		if err != nil || len(body) == 0 {
			t.Fatal(err)
		}
		buf.b = body
		buf.release()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	render() // size a pooled buffer for the body
	if got := testing.AllocsPerRun(100, render); got != 0 {
		t.Errorf("render/400items: %.1f allocs/op, want 0", got)
	}
}
