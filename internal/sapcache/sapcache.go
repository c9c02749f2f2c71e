// Package sapcache is the serving layer's canonicalization cache: a
// content-addressed key for SAP instances (a SHA-256 over the canonical
// encoding of internal/model — sorted task normal form + capacity
// profile), a doubly-bounded LRU that keeps solve results per key, and a
// singleflight group so a thundering herd of identical requests costs one
// underlying solve.
//
// The cache is sound for SAP because cached values carry their certified
// approximation ratio with them: a (9+ε)-approximate solution for an
// instance is a (9+ε)-approximate solution for every permutation of the
// same instance, so requests that differ only in task order share an
// entry. Keys are collision-resistant (SHA-256 over an injective
// encoding), so a hit can be trusted without re-comparing instances.
//
// The LRU is bounded two ways: by entry count and by total retained task
// count (the dominant memory cost of a cached solution is its placement
// list, which is at most the instance's task count). Either bound
// triggers least-recently-used eviction.
package sapcache

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"sync"

	"sapalloc/internal/model"
)

// Key is the canonical cache key of an instance.
type Key [sha256.Size]byte

// String renders the key's short hex prefix for logs.
func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

// KeyOf returns the canonical key of a path instance. Permutations of the
// same task set map to the same key; any other pair of valid instances
// maps to different keys (up to SHA-256 collisions).
func KeyOf(in *model.Instance) Key {
	return sha256.Sum256(in.CanonicalBytes())
}

// KeyOfRing returns the canonical key of a ring instance. Ring and path
// keys never collide: the canonical encodings carry distinct kind tags.
func KeyOfRing(r *model.RingInstance) Key {
	return sha256.Sum256(r.CanonicalBytes())
}

// entry is one resident cache line.
type entry struct {
	key  Key
	val  any
	cost int64
}

// Cache is a mutex-guarded LRU bounded by entry count and by total cost
// (the serving layer uses the instance task count as the cost). The zero
// Cache is unusable; construct with New.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxCost    int64
	cost       int64
	ll         *list.List // front = most recently used
	byKey      map[Key]*list.Element
}

// New builds a cache holding at most maxEntries values of at most maxCost
// total cost. Both bounds must be positive; New panics otherwise so a
// misconfigured server fails at startup, not under load.
func New(maxEntries int, maxCost int64) *Cache {
	if maxEntries <= 0 || maxCost <= 0 {
		panic("sapcache: bounds must be positive")
	}
	return &Cache{
		maxEntries: maxEntries,
		maxCost:    maxCost,
		ll:         list.New(),
		byKey:      make(map[Key]*list.Element),
	}
}

// Get returns the value cached under k and whether it was resident,
// promoting the entry to most recently used on a hit.
func (c *Cache) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Add inserts (or refreshes) the value under k with the given cost and
// evicts least-recently-used entries until both bounds hold again. A value
// whose cost alone exceeds the total budget is not cached at all — one
// oversized instance must not wipe the working set.
func (c *Cache) Add(k Key, v any, cost int64) {
	if cost < 0 {
		cost = 0
	}
	if cost > c.maxCost {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		e := el.Value.(*entry)
		c.cost += cost - e.cost
		e.val, e.cost = v, cost
		c.ll.MoveToFront(el)
	} else {
		c.byKey[k] = c.ll.PushFront(&entry{key: k, val: v, cost: cost})
		c.cost += cost
	}
	for c.ll.Len() > c.maxEntries || c.cost > c.maxCost {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.byKey, e.key)
		c.cost -= e.cost
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cost returns the total retained cost.
func (c *Cache) Cost() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cost
}
