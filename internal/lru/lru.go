// Package lru provides a small generic least-recently-used map used to
// size-bound the repository's shared artefact caches under sustained
// multi-tenant load, and Memo, the one singleflight cache built on it
// (experiments.Session's artefact maps and encoder.TablesCache). Cache is
// deliberately not goroutine-safe: its callers (Memo, the server's core
// cache) own a mutex guarding their cache state, and keeping the locking
// outside avoids double synchronization.
package lru

// Cache is a map with LRU eviction beyond a fixed capacity. The zero
// value is not usable; construct with New. A max of 0 or less means
// unbounded (no eviction), so existing unbounded callers can share the
// code path.
type Cache[K comparable, V any] struct {
	max int
	m   map[K]*node[K, V]
	// head is most recently used, tail least. Sentinel-free doubly linked
	// list; nil head means empty.
	head, tail *node[K, V]
	evictions  int
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// New returns a cache bounded to max entries (max <= 0 = unbounded).
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max, m: make(map[K]*node[K, V])}
}

// Len returns the number of live entries.
func (c *Cache[K, V]) Len() int { return len(c.m) }

// SetMax rebounds the cache to max entries (max <= 0 = unbounded),
// evicting least-recently-used entries immediately if the new bound is
// already exceeded.
func (c *Cache[K, V]) SetMax(max int) {
	c.max = max
	for c.max > 0 && len(c.m) > c.max {
		lru := c.tail
		c.unlink(lru)
		delete(c.m, lru.key)
		c.evictions++
	}
}

// Evictions returns how many entries have been evicted over the cache's
// lifetime (not counting explicit Removes).
func (c *Cache[K, V]) Evictions() int { return c.evictions }

// Get returns the value for k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	n, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.moveToFront(n)
	return n.val, true
}

// Add inserts or replaces k, marks it most recently used, and evicts the
// least recently used entries while the cache exceeds its capacity.
func (c *Cache[K, V]) Add(k K, v V) {
	if n, ok := c.m[k]; ok {
		n.val = v
		c.moveToFront(n)
		return
	}
	n := &node[K, V]{key: k, val: v}
	c.m[k] = n
	c.pushFront(n)
	for c.max > 0 && len(c.m) > c.max {
		lru := c.tail
		c.unlink(lru)
		delete(c.m, lru.key)
		c.evictions++
	}
}

// Remove deletes k if present.
func (c *Cache[K, V]) Remove(k K) {
	if n, ok := c.m[k]; ok {
		c.unlink(n)
		delete(c.m, k)
	}
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *Cache[K, V]) moveToFront(n *node[K, V]) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
