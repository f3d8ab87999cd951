package grid

import (
	"sync"
	"sync/atomic"

	"hido/internal/cube"
)

// cacheShards must be a power of two so the shard mask is cheap. 64
// shards keep lock contention negligible up to far more workers than
// a machine has cores.
const cacheShards = 64

// Cache is a sharded, concurrency-safe memo of cube record counts for
// one Index, keyed by the canonical cube.Key. Nothing in the program
// counts through it: each search run already memoizes its own counts,
// and separate runs share too few cubes for a shared memo to pay.
// perfbench's traced fit counts through it to measure how often a
// fit's restarts revisit each other's cubes.
//
// The cache is append-only and unbounded: the key space actually
// visited by a search is a vanishing fraction of C(d,k)·phi^k, and an
// entry costs only its key string plus an int.
type Cache struct {
	ix           *Index
	shards       [cacheShards]cacheShard
	hits, misses atomic.Uint64
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[string]int
}

// NewCache returns an empty cache counting through the index.
func NewCache(ix *Index) *Cache {
	c := &Cache{ix: ix}
	for i := range c.shards {
		c.shards[i].m = make(map[string]int)
	}
	return c
}

// Count returns the number of records inside the cube, memoized.
func (c *Cache) Count(cb cube.Cube) int { return c.CountKey(cb, cb.Key()) }

// CountKey is Count for callers that already hold the cube's
// canonical key, avoiding a second key construction.
func (c *Cache) CountKey(cb cube.Cube, key string) int {
	sh := &c.shards[shardOf(key)]
	sh.mu.RLock()
	n, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return n
	}
	// Compute outside the lock: concurrent misses on the same key do
	// redundant work but never serialize, and the index is immutable so
	// every computation stores the same value.
	n = c.ix.Count(cb)
	c.misses.Add(1)
	sh.mu.Lock()
	sh.m[key] = n
	sh.mu.Unlock()
	return n
}

// shardOf maps a key to its shard by FNV-1a.
func shardOf(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h & (cacheShards - 1)
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits, Misses uint64
	// Size is the number of memoized cubes.
	Size int
}

// Stats returns the current hit/miss/size counters. Hits and misses
// are exact; Size is a consistent sum over the shards.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		st.Size += len(sh.m)
		sh.mu.RUnlock()
	}
	return st
}

// Reset drops every memoized count and zeroes the counters.
func (c *Cache) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.m = make(map[string]int)
		sh.mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
}
