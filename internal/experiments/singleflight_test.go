package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/benchprofile"
)

// TestSingleflightEncodingBuildsOnce races many goroutines at one
// (circuit, L) key and asserts the memo built the encoding exactly once —
// the singleflight contract the daemon's shared session depends on.
// Run with -race: the memo slot hand-off is the interesting part.
func TestSingleflightEncodingBuildsOnce(t *testing.T) {
	s := NewSession(benchprofile.ScaleCI)
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = s.Encoding(context.Background(), "s13207", 8)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	st := s.Stats()
	if st.EncodingBuilds != 1 {
		t.Fatalf("EncodingBuilds = %d, want exactly 1 (singleflight)", st.EncodingBuilds)
	}
	if st.SetBuilds != 1 {
		t.Fatalf("SetBuilds = %d, want exactly 1", st.SetBuilds)
	}
	if st.Hits < goroutines-1 {
		t.Fatalf("Hits = %d, want ≥ %d", st.Hits, goroutines-1)
	}
}

// TestSingleflightCanceledLeaderDoesNotPoison submits a build under an
// already-cancelled context, then asserts a later caller with a live
// context gets a real encoding: the cancelled leader must clear its memo
// slot instead of caching its context error.
func TestSingleflightCanceledLeaderDoesNotPoison(t *testing.T) {
	s := NewSession(benchprofile.ScaleCI)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Encoding(canceled, "s13207", 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader: err = %v, want context.Canceled", err)
	}
	enc, err := s.Encoding(context.Background(), "s13207", 8)
	if err != nil {
		t.Fatalf("post-cancel rebuild failed: %v", err)
	}
	if len(enc.Seeds) == 0 {
		t.Fatal("post-cancel rebuild returned empty encoding")
	}
}

// TestSingleflightMixedCancellation races live and cancelled contexts on
// one key: every live-context caller must end with a valid encoding, and
// no cancelled caller may corrupt the slot. Exercises the leader hand-off
// paths of lru.Memo under -race.
func TestSingleflightMixedCancellation(t *testing.T) {
	s := NewSession(benchprofile.ScaleCI)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	const pairs = 8
	var wg sync.WaitGroup
	liveErrs := make([]error, pairs)
	for g := 0; g < pairs; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			_, liveErrs[g] = s.Encoding(context.Background(), "s13207", 8)
		}(g)
		go func() {
			defer wg.Done()
			// Either outcome (ctx error or a value served from a finished
			// slot) is legal for a cancelled caller.
			s.Encoding(canceled, "s13207", 8) //nolint:errcheck
		}()
	}
	wg.Wait()
	for g, err := range liveErrs {
		if err != nil {
			t.Fatalf("live caller %d: %v", g, err)
		}
	}
}

// TestSetMaxCachedBoundsMemos verifies the LRU bound: more distinct keys
// than the bound evicts, re-requesting an evicted key rebuilds, and the
// live slot count respects the bound.
func TestSetMaxCachedBoundsMemos(t *testing.T) {
	s := NewSession(benchprofile.ScaleCI)
	s.SetMaxCached(2)
	for _, L := range []int{4, 6, 8} {
		if _, err := s.Encoding(context.Background(), "s13207", L); err != nil {
			t.Fatalf("L=%d: %v", L, err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("Evictions = 0, want > 0 with bound 2 and 3 keys")
	}
	if st.EncodingBuilds != 3 {
		t.Fatalf("EncodingBuilds = %d, want 3", st.EncodingBuilds)
	}
	// L=4 was evicted (LRU); re-requesting it must rebuild, not fail.
	if _, err := s.Encoding(context.Background(), "s13207", 4); err != nil {
		t.Fatalf("rebuild after eviction: %v", err)
	}
	if got := s.Stats().EncodingBuilds; got != 4 {
		t.Fatalf("EncodingBuilds after re-request = %d, want 4 (rebuild)", got)
	}
	// The bound covers the encoder's symbolic-table cache too.
	if n, ev := s.EncTables.Len(), s.EncTables.Evictions(); n > 2 || ev == 0 {
		t.Fatalf("EncTables: %d cached, %d evictions; want ≤ 2 cached and evictions > 0", n, ev)
	}
}

// TestDriversHonourCancelledContext runs every table and figure driver
// with a context cancelled beforehand: each must fail with
// context.Canceled. A second call on the same session with a live context
// must then render exactly what a fresh session renders, which shows the
// cancelled run left no poisoned memo behind.
func TestDriversHonourCancelledContext(t *testing.T) {
	drivers := []struct {
		name   string
		render func(ctx context.Context, s *Session) (string, error)
	}{
		{"Table1", func(ctx context.Context, s *Session) (string, error) {
			rows, err := s.Table1(ctx)
			return s.Table1Markdown(rows), err
		}},
		{"Table2", func(ctx context.Context, s *Session) (string, error) {
			rows, err := s.Table2(ctx)
			return s.Table2Markdown(rows), err
		}},
		{"Table3", func(ctx context.Context, s *Session) (string, error) {
			rows, err := s.Table3(ctx)
			return s.Table3Markdown(rows), err
		}},
		{"Table4", func(ctx context.Context, s *Session) (string, error) {
			rows, err := s.Table4(ctx)
			return s.Table4Markdown(rows), err
		}},
		{"Fig4", func(ctx context.Context, s *Session) (string, error) {
			bars, curves, err := s.Fig4(ctx)
			return s.Fig4Markdown(bars, curves), err
		}},
		{"HWOverhead", func(ctx context.Context, s *Session) (string, error) {
			rep, err := s.HWOverhead(ctx)
			if err != nil {
				return "", err
			}
			return s.HWMarkdown(rep), nil
		}},
		{"SoC", func(ctx context.Context, s *Session) (string, error) {
			rep, err := s.SoC(ctx)
			if err != nil {
				return "", err
			}
			return s.SoCMarkdown(rep), nil
		}},
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			s := NewSession(benchprofile.ScaleCI)
			if _, err := d.render(canceled, s); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
			}
			got, err := d.render(context.Background(), s)
			if err != nil {
				t.Fatalf("live context after cancel: %v", err)
			}
			want, err := d.render(context.Background(), NewSession(benchprofile.ScaleCI))
			if err != nil {
				t.Fatalf("fresh session: %v", err)
			}
			if got != want {
				t.Fatalf("rendering after a cancelled run differs from a fresh session's:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
