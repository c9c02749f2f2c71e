package model

import "sync"

// bufs holds the reusable buffers of the package's hot checks (the
// duplicate-ID scan, ValidSAP), so that serving a request allocates none of
// their temporaries. The buffers come from a sync.Pool, which frees a
// buffer at the second garbage collection after its last use.
type bufs struct {
	ids     []int
	ord     []int
	ord2    []int
	flags   []uint8
	pls     []Placement
	actives []sweepActive
}

var bufPool = sync.Pool{New: func() any { return new(bufs) }}

// maxPooledElems bounds the buffers a bufs keeps across calls, so that one
// huge instance does not pin its scratch in the pool.
const maxPooledElems = 1 << 16

func getBufs() *bufs { return bufPool.Get().(*bufs) }

func putBufs(b *bufs) {
	b.ids = capped(b.ids)
	b.ord = capped(b.ord)
	b.ord2 = capped(b.ord2)
	b.flags = capped(b.flags)
	b.pls = capped(b.pls)
	b.actives = capped(b.actives)
	bufPool.Put(b)
}

func capped[T any](s []T) []T {
	if cap(s) > maxPooledElems {
		return nil
	}
	return s
}

// indices appends 0, 1, …, n-1 to s[:0].
func indices(s []int, n int) []int {
	s = s[:0]
	for i := 0; i < n; i++ {
		s = append(s, i)
	}
	return s
}
