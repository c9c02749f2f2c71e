package exact

import (
	"context"
	"math/rand"
	"testing"

	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/scratch"
)

// lowestSlot is the reference for the level tables: the lowest height at
// which an item of the given demand fits on choice c under the choice's
// capacity, given the placed rectangles, or -1 when it fits nowhere. The
// rectangles sharing an edge with c are insertion-sorted by bottom and
// swept upwards from 0, from scratch on every call: nothing is carried
// over from the parent depth, so it shares no state with the tables.
func (s *searcher) lowestSlot(c int, demand int64, placed []rect) int64 {
	nc := len(s.choices)
	row := s.overlap[c*nc : (c+1)*nc]
	below := make([]rect, 0, len(placed))
	for _, r := range placed {
		if !row[r.choice] {
			continue
		}
		k := len(below)
		below = append(below, r)
		for k > 0 && below[k-1].bottom > r.bottom {
			below[k] = below[k-1]
			k--
		}
		below[k] = r
	}
	var h int64
	for _, r := range below {
		if r.bottom >= h+demand {
			break
		}
		if r.top > h {
			h = r.top
		}
	}
	if h+demand > s.choices[c].cap {
		return -1
	}
	return h
}

// levelItems draws a search input from r: a path with one choice per item
// (shape 0), a ring with two (shape 1), or a path with a window of start
// offsets per item (shape 2). Demands are small against the capacities, so
// branches run deep and placements stack on shared edges.
func levelItems(r *rand.Rand, shape int, a *scratch.Arena) ([]item, []choice) {
	if shape == 1 {
		edges := 4 + r.Intn(12)
		return ringChoices(gen.Ring(r.Int63(), edges, 4+r.Intn(MaxTasks-3), 8, 41), a)
	}
	m := 4 + r.Intn(20)
	capacity := make([]int64, m)
	for e := range capacity {
		capacity[e] = 8 + r.Int63n(40)
	}
	n := 4 + r.Intn(MaxTasks-3)
	var alts []model.Task
	ends := make([]int, n)
	for i := range ends {
		length := 1 + r.Intn(min(m, 6))
		offsets := 1
		if shape == 2 {
			offsets = 1 + r.Intn(min(m-length+1, MaxChoices/MaxTasks))
		}
		first := r.Intn(m - length - offsets + 2)
		demand, weight := 1+r.Int63n(12), 1+r.Int63n(50)
		for k := 0; k < offsets; k++ {
			alts = append(alts, model.Task{ID: i, Start: first + k, End: first + k + length, Demand: demand, Weight: weight})
		}
		ends[i] = len(alts)
	}
	return pathChoices(capacity, alts, ends, a)
}

// checkLevels walks random branches of one search over a random input and
// compares, at every depth, each remaining choice's slot in the level
// tables with the reference on the same placements. A branch places a
// random remaining item on a random choice at the slot the tables give,
// as rec does, and then descends; after each branch the walk backs up to a
// random depth and branches again, so sibling branches overwrite the
// deeper levels the way the search does.
func checkLevels(t *testing.T, seed int64, shape int) {
	r := rand.New(rand.NewSource(seed))
	a := scratch.Get()
	defer scratch.Put(a)
	items, choices := levelItems(r, shape, a)
	s := new(searcher)
	s.init(context.Background(), items, choices, 0, a)
	nc := len(choices)
	all := uint64(1)<<uint(len(items)) - 1
	// remaining[d] is the item set level d was derived for.
	remaining := make([]uint64, len(items)+1)
	remaining[0] = all
	d := 0
	for branch := 0; branch < 8; branch++ {
		for {
			slot := s.slot[d*nc : (d+1)*nc]
			var open []rect
			for j, it := range items {
				if remaining[d]&(1<<uint(j)) == 0 {
					continue
				}
				for c := it.first; c < it.end; c++ {
					want := s.lowestSlot(c, it.demand, s.placed[:d])
					if slot[c] != want {
						t.Fatalf("seed %d shape %d branch %d depth %d: choice %d of item %d has slot %d, reference %d\nplaced: %v",
							seed, shape, branch, d, c, j, slot[c], want, s.placed[:d])
					}
					if want >= 0 {
						open = append(open, rect{item: int32(j), choice: int32(c), bottom: want, top: want + it.demand})
					}
				}
			}
			if len(open) == 0 {
				break
			}
			pick := open[r.Intn(len(open))]
			s.placed[d] = pick
			d++
			remaining[d] = remaining[d-1] &^ (1 << uint(pick.item))
			s.descend(d, remaining[d])
		}
		d = r.Intn(d + 1)
	}
}

// The level tables give every remaining choice the slot the reference
// sweep computes from scratch, at every depth of random branches over path,
// ring and windowed inputs.
func TestLevelsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		checkLevels(t, seed, int(seed%3))
	}
}

// FuzzLevels is TestLevelsMatchReference over fuzzed seeds.
func FuzzLevels(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(1))
	f.Add(int64(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		checkLevels(t, seed, int(shape%3))
	})
}
