package rs

import (
	"sync"
	"testing"

	"repro/internal/matrix"
)

// TestMatrixCacheParallel drives the cache from many goroutines with a
// stable hot key (the steady-state failure pattern) plus churn keys
// that force eviction, under the race detector. The approximate-LRU
// policy may legitimately evict any key under concurrent churn, so the
// test asserts race-freedom, bounded capacity, non-nil results, and
// coherent stats — not residency of a particular key.
func TestMatrixCacheParallel(t *testing.T) {
	c := newMatrixCache[shardKey](4)
	hot := shardKey{1}
	c.put(hot, matrix.Identity(3))

	const goroutines = 8
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			churn := shardKey{uint64(2 + g)}
			for i := 0; i < iters; i++ {
				m, ok := c.get(hot)
				if ok && m == nil {
					t.Error("hit returned a nil matrix")
					return
				}
				if !ok {
					c.put(hot, matrix.Identity(3)) // evicted by churn; reinstate
				}
				if i%10 == 0 {
					if _, ok := c.get(churn); !ok {
						c.put(churn, matrix.Identity(3))
					}
				}
			}
		}(g)
	}
	wg.Wait()

	hits, misses, entries := c.stats()
	if hits == 0 {
		t.Fatal("the hot key should have hit at least once")
	}
	if misses == 0 {
		t.Fatal("churn keys should have missed at least once")
	}
	if entries > 4 {
		t.Fatalf("capacity 4 exceeded: %d entries", entries)
	}
}

// TestMatrixCacheEvictsLeastRecent pins the approximate-LRU policy:
// with capacity 2, touching an old entry keeps it alive while the
// untouched one is evicted.
func TestMatrixCacheEvictsLeastRecent(t *testing.T) {
	c := newMatrixCache[shardKey](2)
	a, b, d := shardKey{1}, shardKey{2}, shardKey{3}
	c.put(a, matrix.Identity(2))
	c.put(b, matrix.Identity(2))
	c.get(a) // a is now more recent than b
	c.put(d, matrix.Identity(2))
	if _, ok := c.get(a); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.get(b); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	if _, ok := c.get(d); !ok {
		t.Fatal("newly inserted entry missing")
	}
}
