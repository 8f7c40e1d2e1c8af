package encoder

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestTablesCacheBuildsOnceUnderRace hammers one configuration from many
// goroutines and asserts exactly one Tables build happened, with every
// caller receiving the same instance. Run with -race.
func TestTablesCacheBuildsOnceUnderRace(t *testing.T) {
	cache := NewTablesCache()
	const goroutines = 32
	var wg sync.WaitGroup
	got := make([]*Tables, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = cache.TablesFor(context.Background(), 24, 64, 8, 4, 0)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if got[g] != got[0] {
			t.Fatalf("goroutine %d received a different Tables instance", g)
		}
	}
	if b := cache.Builds(); b != 1 {
		t.Fatalf("Builds = %d, want exactly 1 (singleflight)", b)
	}
}

// TestTablesCacheSetMaxEvicts bounds the cache below the number of
// distinct configurations and checks LRU eviction plus rebuild-on-return.
func TestTablesCacheSetMaxEvicts(t *testing.T) {
	cache := NewTablesCache()
	cache.SetMax(2)
	for _, L := range []int{2, 3, 4} {
		if _, err := cache.TablesFor(context.Background(), 24, 64, 8, L, 0); err != nil {
			t.Fatalf("L=%d: %v", L, err)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (bounded)", cache.Len())
	}
	if cache.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", cache.Evictions())
	}
	// L=2 is the LRU victim; re-requesting it rebuilds.
	if _, err := cache.TablesFor(context.Background(), 24, 64, 8, 2, 0); err != nil {
		t.Fatalf("rebuild after eviction: %v", err)
	}
	if b := cache.Builds(); b != 4 {
		t.Fatalf("Builds = %d, want 4 (3 distinct + 1 rebuild)", b)
	}
}

// pollCountdown is a context whose Err reports nil for its first polls
// and context.Canceled from then on, so a build can be cancelled at a
// deterministic point partway through its symbolic simulation.
type pollCountdown struct {
	context.Context
	left atomic.Int64
}

func (c *pollCountdown) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestTablesForCancelledLeaderNotCached cancels the leader of a
// configuration's build partway through the phase-shifter design: it must
// get context.Canceled and leave nothing cached, the next caller must
// build the tables afresh and successfully, and Builds must count both.
func TestTablesForCancelledLeaderNotCached(t *testing.T) {
	cache := NewTablesCache()
	leader := &pollCountdown{Context: context.Background()}
	leader.left.Store(3)
	if _, err := cache.TablesFor(leader, 24, 64, 8, 8, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader: err = %v, want context.Canceled", err)
	}
	if leader.left.Load() >= 0 {
		t.Fatalf("the build stopped before its symbolic simulation polled the context")
	}
	if cache.Len() != 0 {
		t.Fatalf("cancelled build cached: Len = %d", cache.Len())
	}
	got, err := cache.TablesFor(context.Background(), 24, 64, 8, 8, 0)
	if err != nil {
		t.Fatalf("build after a cancelled leader: %v", err)
	}
	want, err := StandardConfig(context.Background(), 24, 64, 8, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows().Count() != want.Tables.Rows().Count() {
		t.Fatalf("rows %d, want %d", got.Rows().Count(), want.Tables.Rows().Count())
	}
	for i := 0; i < got.Rows().Count(); i++ {
		if !got.Rows().Row(i).Equal(want.Tables.Rows().Row(i)) {
			t.Fatalf("row %d differs from a fresh build", i)
		}
	}
	if b := cache.Builds(); b != 2 {
		t.Fatalf("Builds = %d, want 2 (cancelled + successful)", b)
	}
}
