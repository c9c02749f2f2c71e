package sapcache

import (
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sapalloc/internal/model"
)

func keyN(n int) Key {
	var k Key
	k[0] = byte(n)
	k[1] = byte(n >> 8)
	return k
}

func TestKeyOfPermutationInvariant(t *testing.T) {
	in := &model.Instance{
		Capacity: []int64{8, 4, 16},
		Tasks: []model.Task{
			{ID: 0, Start: 0, End: 2, Demand: 2, Weight: 3},
			{ID: 1, Start: 1, End: 3, Demand: 1, Weight: 5},
			{ID: 2, Start: 0, End: 1, Demand: 4, Weight: 2},
		},
	}
	perm := in.Clone()
	perm.Tasks[0], perm.Tasks[2] = perm.Tasks[2], perm.Tasks[0]
	if KeyOf(in) != KeyOf(perm) {
		t.Error("task permutation changed the key")
	}
	mut := in.Clone()
	mut.Tasks[1].Weight++
	if KeyOf(in) == KeyOf(mut) {
		t.Error("distinct instances share a key")
	}
	ring := &model.RingInstance{
		Capacity: in.Capacity,
		Tasks: []model.RingTask{
			{ID: 0, Start: 0, End: 2, Demand: 2, Weight: 3},
			{ID: 1, Start: 1, End: 0, Demand: 1, Weight: 5},
			{ID: 2, Start: 0, End: 1, Demand: 4, Weight: 2},
		},
	}
	if KeyOfRing(ring) == KeyOf(in) {
		t.Error("ring and path instances share a key")
	}
}

// TestKeyGolden pins the key bytes. store.File logs are keyed by these
// digests on disk, so a drift would silently orphan every store written by
// earlier servers. The path instance is given out of normal form and with
// magnitudes past 32 bits; both keys must equal their canonical instance's.
func TestKeyGolden(t *testing.T) {
	path := &model.Instance{
		Capacity: []int64{8, 6, 1 << 40, 4},
		Tasks: []model.Task{
			{ID: 7, Start: 2, End: 4, Demand: 3, Weight: 1 << 40},
			{ID: 2, Start: 0, End: 2, Demand: 3, Weight: 10},
			{ID: 5, Start: 0, End: 2, Demand: 3, Weight: 10},
			{ID: 0, Start: 1, End: 4, Demand: 2, Weight: 7},
			{ID: 3, Start: 0, End: 2, Demand: 1, Weight: 0},
			{ID: 9, Start: 0, End: 1, Demand: 4, Weight: 6},
		},
	}
	ring := &model.RingInstance{
		Capacity: []int64{5, 6, 7, 9},
		Tasks: []model.RingTask{
			{ID: 4, Start: 0, End: 2, Demand: 2, Weight: 9},
			{ID: 1, Start: 1, End: 3, Demand: 1, Weight: 4},
			{ID: 0, Start: 3, End: 1, Demand: 3, Weight: 5},
		},
	}
	const (
		wantPath = "4fb378e451318f4e7d613b4062b155f179380805569f88022efa17c9968c5525"
		wantRing = "43d9917a953fe3c3ee9d6b5dff3eabe6fbfc9fc56636a76aa20b34bcd9d8fc6f"
	)
	for want, keys := range map[string][2]Key{
		wantPath: {KeyOf(path), KeyOf(path.Canonicalize())},
		wantRing: {KeyOfRing(ring), KeyOfRing(ring.Canonicalize())},
	} {
		for _, k := range keys {
			if got := hex.EncodeToString(k[:]); got != want {
				t.Errorf("key %s, want %s", got, want)
			}
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(3, 100)
	for i := 0; i < 3; i++ {
		c.Add(keyN(i), i, 1)
	}
	// Touch 0 so 1 becomes the LRU victim.
	if v, ok := c.Get(keyN(0)); !ok || v.(int) != 0 {
		t.Fatalf("Get(0) = %v, %v", v, ok)
	}
	c.Add(keyN(3), 3, 1)
	if _, ok := c.Get(keyN(1)); ok {
		t.Error("LRU entry 1 survived eviction")
	}
	for _, want := range []int{0, 2, 3} {
		if _, ok := c.Get(keyN(want)); !ok {
			t.Errorf("entry %d missing", want)
		}
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
}

func TestCacheCostBound(t *testing.T) {
	c := New(100, 10)
	c.Add(keyN(0), "a", 4)
	c.Add(keyN(1), "b", 4)
	c.Add(keyN(2), "c", 4) // cost 12 > 10: evicts key 0
	if _, ok := c.Get(keyN(0)); ok {
		t.Error("cost bound did not evict the LRU entry")
	}
	if got := c.Cost(); got != 8 {
		t.Errorf("Cost = %d, want 8", got)
	}
	// An entry bigger than the whole budget is refused outright.
	c.Add(keyN(9), "huge", 11)
	if _, ok := c.Get(keyN(9)); ok {
		t.Error("oversized entry was cached")
	}
	if _, ok := c.Get(keyN(1)); !ok {
		t.Error("oversized Add evicted the working set")
	}
	// Refreshing a key adjusts cost instead of double-counting.
	c.Add(keyN(1), "b2", 6)
	if got := c.Cost(); got != 10 {
		t.Errorf("Cost after refresh = %d, want 10", got)
	}
	if v, _ := c.Get(keyN(1)); v.(string) != "b2" {
		t.Errorf("refresh lost the new value: %v", v)
	}
}

func TestSingleflightDedups(t *testing.T) {
	var g Group
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	const waiters = 32
	var wg sync.WaitGroup
	sharedCount := atomic.Int64{}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := g.Do(keyN(1), func() (any, error) {
				calls.Add(1)
				close(entered)
				<-release
				return "result", nil
			})
			if err != nil || v.(string) != "result" {
				t.Errorf("Do = %v, %v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Wait until the leader is inside fn and every other goroutine has
	// committed to sharing its call, then release. Without the waiter
	// barrier a straggler could arrive after the leader finished and
	// legitimately run fn a second time.
	<-entered
	waitForWaiters(t, &g, keyN(1), waiters-1)
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	if sharedCount.Load() != waiters-1 {
		t.Errorf("%d shared results, want %d", sharedCount.Load(), waiters-1)
	}
	// A fresh Do after completion runs fn again.
	_, _, shared := g.Do(keyN(1), func() (any, error) { calls.Add(1); return "again", nil })
	if shared || calls.Load() != 2 {
		t.Errorf("completed result was retained: shared=%v calls=%d", shared, calls.Load())
	}
}

func waitForWaiters(t *testing.T, g *Group, key Key, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.numWaiters(key) < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d of %d waiters joined", g.numWaiters(key), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSingleflightDistinctKeysRunConcurrently(t *testing.T) {
	var g Group
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		_, _, _ = g.Do(keyN(1), func() (any, error) { <-gate; return nil, nil })
		close(done)
	}()
	// Must complete while key 1 is still blocked.
	if _, err, _ := g.Do(keyN(2), func() (any, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	close(gate)
	<-done
}

func TestSingleflightLeaderPanicReleasesWaiters(t *testing.T) {
	var g Group
	entered := make(chan struct{})
	finish := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		_, _, _ = g.Do(keyN(1), func() (any, error) {
			close(entered)
			<-finish
			panic("solver bug")
		})
	}()
	<-entered
	go func() {
		_, err, _ := g.Do(keyN(1), func() (any, error) { return nil, fmt.Errorf("must not run") })
		waiterDone <- err
	}()
	waitForWaiters(t, &g, keyN(1), 1)
	close(finish)
	if err := <-waiterDone; err == nil {
		t.Error("waiter of a panicked leader got a nil error")
	}
}
