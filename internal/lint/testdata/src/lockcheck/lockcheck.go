// Package lockcheck seeds violations and clean cases for the lockcheck
// analyzer.
package lockcheck

import "sync"

// Cache is a mutex-guarded memo.
type Cache struct {
	mu   sync.Mutex
	vals map[string]int // guarded by mu
	hits int            // guarded by mu
	name string         // unguarded
}

func (c *Cache) Get(k string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits++         // clean: lock held
	return c.vals[k] // clean: lock held
}

func (c *Cache) BadGet(k string) int {
	return c.vals[k] // want `read of Cache.vals \(guarded by mu\) without c.mu held`
}

func (c *Cache) BadPut(k string, v int) {
	c.vals[k] = v // want `write to Cache.vals`
	c.hits++      // want `write to Cache.hits`
}

func (c *Cache) BadDelete(k string) {
	delete(c.vals, k) // want `write to Cache.vals`
}

func (c *Cache) Name() string {
	return c.name // clean: unguarded field
}

func (c *Cache) resetLocked() {
	c.vals = map[string]int{} // clean: *Locked naming convention
	c.hits = 0                // clean
}

func lookup(mu *sync.Mutex, m map[string]int, k string) int {
	mu.Lock()
	defer mu.Unlock()
	return m[k]
}

func (c *Cache) Delegated(k string) int {
	return lookup(&c.mu, c.vals, k) // clean: lock travels with the data
}

// RW exercises the read/write lock distinction.
type RW struct {
	mu sync.RWMutex
	n  int // guarded by mu
}

func (r *RW) Read() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n // clean: RLock suffices for reads
}

func (r *RW) BadWrite(v int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.n = v // want `write to RW.n \(guarded by mu\) without r.mu held`
}

func (r *RW) Write(v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n = v // clean
}

// Memo is a generic guarded cache: inside its methods the selections name
// instantiated copies of the fields, which must still resolve to the
// guarded declarations.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V // guarded by mu
}

func (c *Memo[K, V]) Get(k K) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[k] // clean: lock held
}

func (c *Memo[K, V]) BadLen() int {
	return len(c.m) // want `read of Memo.m \(guarded by mu\) without c.mu held`
}
