package lru

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Memo is a goroutine-safe singleflight cache over a Cache: the first
// goroutine to request a key (the leader) computes it while later ones
// block until it is done, so concurrent requests for one artefact share a
// single computation. Unlike a sync.Once slot, a leader whose build fails
// with a context cancellation or deadline clears the slot before waking
// its waiters, so one caller's cancel never poisons the cache for everyone
// else — the next live requester simply becomes the new leader.
//
// The zero value is not usable; construct with NewMemo.
type Memo[K comparable, V any] struct {
	mu     sync.Mutex
	m      *Cache[K, *flight[V]] // guarded by mu
	builds atomic.Int64
	hits   atomic.Int64
}

// flight is one memo slot. The leader writes val and err before closing
// done; waiters read them only after done is closed.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewMemo returns an empty memo bounded to max entries (max <= 0 =
// unbounded).
func NewMemo[K comparable, V any](max int) *Memo[K, V] {
	return &Memo[K, V]{m: New[K, *flight[V]](max)}
}

// Get returns the memoized value for k, calling compute at most once
// across all goroutines for as long as the entry stays cached. The context
// governs waiting: a waiter whose ctx fires stops waiting and returns the
// ctx error. compute runs on the leader and is expected to honour the
// leader's own context; if it fails with a context error the slot is
// dropped, and a waiter that is still live retries as the new leader.
// Other errors are cached like values.
func (c *Memo[K, V]) Get(ctx context.Context, k K, compute func() (V, error)) (V, error) {
	for {
		c.mu.Lock()
		f, ok := c.m.Get(k)
		if !ok {
			f = &flight[V]{done: make(chan struct{})}
			c.m.Add(k, f)
			c.mu.Unlock()
			c.builds.Add(1)
			f.val, f.err = compute()
			if isCtxErr(f.err) {
				// Clear the slot (if it is still ours — eviction may have
				// raced) before waking waiters, so a later requester
				// recomputes instead of inheriting the cancellation.
				c.mu.Lock()
				if cur, ok := c.m.Get(k); ok && cur == f {
					c.m.Remove(k)
				}
				c.mu.Unlock()
			}
			close(f.done)
			return f.val, f.err
		}
		c.mu.Unlock()
		c.hits.Add(1)
		select {
		case <-f.done:
			if isCtxErr(f.err) && ctx.Err() == nil {
				continue // leader cancelled, we are alive: take over
			}
			return f.val, f.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
}

// isCtxErr reports whether an error is (or wraps) a context cancellation
// or deadline — the errors that must not be cached.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Remove drops k's slot. An in-flight build keeps running for the
// waiters it already has; the next request recomputes.
func (c *Memo[K, V]) Remove(k K) {
	c.mu.Lock()
	c.m.Remove(k)
	c.mu.Unlock()
}

// SetMax rebounds the memo to max entries (max <= 0 = unbounded),
// evicting least-recently-used slots immediately if the bound is already
// exceeded. Eviction drops the slot only: an in-flight build keeps running
// for its waiters, and values already handed out stay valid.
func (c *Memo[K, V]) SetMax(max int) {
	c.mu.Lock()
	c.m.SetMax(max)
	c.mu.Unlock()
}

// Len returns the number of live slots.
func (c *Memo[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Len()
}

// Evictions returns how many slots LRU eviction has dropped.
func (c *Memo[K, V]) Evictions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Evictions()
}

// Builds returns how many times compute has been called.
func (c *Memo[K, V]) Builds() int64 { return c.builds.Load() }

// Hits returns how many requests found an existing slot.
func (c *Memo[K, V]) Hits() int64 { return c.hits.Load() }
