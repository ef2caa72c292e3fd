// Package once holds values computed once per key and shared by every
// caller after: parsed view definitions, bound CHECK constraints, the
// optimizer's rule lists. A Map is safe for concurrent use and bounded; at
// its cap it starts over instead of tracking recency, since its keys are
// definitions a running server keeps meeting, not ad-hoc statement texts
// (those go to package lru's caches).
package once

import "sync"

// Map is a concurrency-safe map of computed values holding at most cap
// keys. The zero value is not usable; call New.
type Map[K comparable, V any] struct {
	cap int
	mu  sync.RWMutex
	m   map[K]V
}

// New returns an empty map holding at most capacity keys.
func New[K comparable, V any](capacity int) *Map[K, V] {
	return &Map[K, V]{cap: max(capacity, 1), m: map[K]V{}}
}

// Get returns the value under k, if one was put.
func (c *Map[K, V]) Get(k K) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	return v, ok
}

// GetBytes is Get for a string-keyed map under a key held as bytes; the
// lookup allocates no string.
func GetBytes[V any](c *Map[string, V], k []byte) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[string(k)]
	c.mu.RUnlock()
	return v, ok
}

// Put stores v under k, emptying the map first when it is full. Two
// callers that computed the same key race harmlessly: the later value
// replaces the earlier, equal one.
func (c *Map[K, V]) Put(k K, v V) {
	c.mu.Lock()
	if len(c.m) >= c.cap {
		clear(c.m)
	}
	c.m[k] = v
	c.mu.Unlock()
}
