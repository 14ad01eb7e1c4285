package rs

import (
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
)

// shardKey is a shard-position bitmask: the survivors a decode matrix
// was inverted for, or the erasures a punctured check was built for.
// 256 bits covers the maximum code length.
type shardKey [4]uint64

// maskOf returns the bitmask of the given shard positions.
func maskOf(positions []int) shardKey {
	var key shardKey
	for _, p := range positions {
		key[p>>6] |= 1 << (p & 63)
	}
	return key
}

// has reports whether position i is in the mask.
func (k shardKey) has(i int) bool { return k[i>>6]&(1<<(i&63)) != 0 }

// errataKey identifies an error-magnitude solve: the erasures F the
// check was punctured at and the located error positions U.
type errataKey struct{ erased, errs shardKey }

// matrixCache is a bounded cache of per-pattern matrices — inverted
// decode matrices, punctured checks, error-magnitude solves — with
// approximate-LRU eviction, keyed by the failure pattern K. In steady
// state a cluster has a stable failure pattern — the same servers are
// slow, dead or rotten across many reads — so the same algebra would
// otherwise be redone on every decode.
//
// The cache is read-mostly by construction, so the hit path takes only
// a shared RLock for the map lookup plus two atomic stores: concurrent
// readers with a stable failure pattern never serialize on a writer
// lock. Recency is a per-entry atomic clock tick rather than a linked
// list (a list's MoveToFront would need the write lock on every hit);
// eviction scans for the minimum tick, which is fine because the cache
// is small (default 64 entries) and misses already pay an O(k^3)
// inversion.
type matrixCache[K comparable] struct {
	mu      sync.RWMutex
	cap     int
	entries map[K]*cacheEntry[K]
	clock   atomic.Uint64
	hits    atomic.Uint64
	misses  atomic.Uint64
}

type cacheEntry[K comparable] struct {
	key  K
	m    *matrix.Matrix
	used atomic.Uint64
}

func newMatrixCache[K comparable](capacity int) *matrixCache[K] {
	return &matrixCache[K]{
		cap:     capacity,
		entries: make(map[K]*cacheEntry[K], capacity),
	}
}

func (c *matrixCache[K]) get(key K) (*matrix.Matrix, bool) {
	c.mu.RLock()
	e := c.entries[key]
	var m *matrix.Matrix
	if e != nil {
		m = e.m // read under the lock: put may replace it
	}
	c.mu.RUnlock()
	if e == nil {
		c.misses.Add(1)
		return nil, false
	}
	e.used.Store(c.clock.Add(1))
	c.hits.Add(1)
	return m, true
}

func (c *matrixCache[K]) put(key K, m *matrix.Matrix) {
	tick := c.clock.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.m = m
		e.used.Store(tick)
		return
	}
	for len(c.entries) >= c.cap {
		var victim *cacheEntry[K]
		for _, e := range c.entries {
			if victim == nil || e.used.Load() < victim.used.Load() {
				victim = e
			}
		}
		delete(c.entries, victim.key)
	}
	e := &cacheEntry[K]{key: key, m: m}
	e.used.Store(tick)
	c.entries[key] = e
}

func (c *matrixCache[K]) stats() (hits, misses uint64, entries int) {
	c.mu.RLock()
	entries = len(c.entries)
	c.mu.RUnlock()
	return c.hits.Load(), c.misses.Load(), entries
}
