package encoder

import (
	"context"

	"repro/internal/lru"
)

// TablesCache memoizes the Tables of the standard decompressor per
// configuration (LFSR size, geometry, window length and phase-shifter
// variant), so experiment sweeps, EncodeAutoCtx variant retries and
// repeated CLI/benchmark encodes stop recomputing identical symbolic
// simulations. It is safe for concurrent use: the first caller of a key
// designs the phase shifter and builds the tables (singleflight, see
// lru.Memo) while later callers of the same key wait for that build, so
// every configuration is built exactly once no matter how many tenants
// race on it. A build whose caller's context fires is not cached; the
// next caller builds afresh. SetMax bounds the cache with LRU eviction for
// long-lived multi-tenant processes; the default is unbounded.
//
// The key includes the window length because the standard phase shifter's
// separation window — and therefore its taps — depends on L·Length.
type TablesCache struct {
	m *lru.Memo[tabKey, *Tables]
}

type tabKey struct {
	n, width, chains, L int
	variant             uint64
}

// NewTablesCache returns an empty, unbounded cache.
func NewTablesCache() *TablesCache {
	return &TablesCache{m: lru.NewMemo[tabKey, *Tables](0)}
}

// SetMax bounds the cache to max configurations (0 = unbounded), evicting
// least-recently-used entries immediately if the bound is already
// exceeded. An evicted configuration is simply rebuilt on next use;
// Tables already handed out stay valid.
func (c *TablesCache) SetMax(max int) { c.m.SetMax(max) }

// Len returns the number of cached configurations.
func (c *TablesCache) Len() int { return c.m.Len() }

// Builds returns how many Tables builds the cache has started over its
// lifetime, cancelled ones included. Concurrency stress tests use it to
// assert exactly-once builds.
func (c *TablesCache) Builds() int64 { return c.m.Builds() }

// Evictions returns how many configurations LRU eviction has dropped.
func (c *TablesCache) Evictions() int { return c.m.Evictions() }

// TablesFor returns the shared Tables of the standard decompressor with
// the given parameters (see StandardConfig), building them at most once
// per configuration. ctx governs the build when this caller leads it, and
// the wait otherwise.
func (c *TablesCache) TablesFor(ctx context.Context, n, width, chains, L int, variant uint64) (*Tables, error) {
	k := tabKey{n: n, width: width, chains: chains, L: L, variant: variant}
	return c.m.Get(ctx, k, func() (*Tables, error) {
		return standardTables(ctx, n, width, chains, L, variant)
	})
}
