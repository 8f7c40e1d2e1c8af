package faultsim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/netlist"
	"repro/internal/prng"
)

// pollLimitCtx reports context.Canceled from Err once its first n polls
// are spent — a deterministic way to cancel a sweep part-way through.
type pollLimitCtx struct {
	context.Context
	left atomic.Int64
}

func (c *pollLimitCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCoverageCtxCanceled asserts a dead context stops the coverage run
// with a typed error, and that a sweep cancelled part-way through leaves a
// valid partial marking: every marked fault is genuinely detected, the
// returned count matches the marks, and the marking stops short of the
// uncancelled sweep's.
func TestCoverageCtxCanceled(t *testing.T) {
	core, err := netlist.Random(netlist.RandomConfig{
		Inputs: 40, Outputs: 24, Gates: 600, MaxFan: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(core)
	patterns := randomPatterns(prng.New(11), 512, len(core.Inputs))

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := CoverageCtx(canceled, u, patterns, Options{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	sims, err := NewSimulatorPool(u, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sims[0].LoadPatterns(patterns[:64]); err != nil {
		t.Fatal(err)
	}
	sims[1].AdoptPatterns(sims[0])
	full := make([]bool, len(u.Faults))
	fullN, err := DetectAllCtx(context.Background(), sims, u.Faults, full)
	if err != nil {
		t.Fatal(err)
	}
	// Three polls let the two workers claim three chunks between them.
	ctx := &pollLimitCtx{Context: context.Background()}
	ctx.left.Store(3)
	partial := make([]bool, len(u.Faults))
	n, err := DetectAllCtx(ctx, sims, u.Faults, partial)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("partial sweep err = %v, want context.Canceled", err)
	}
	marked := 0
	for fi, d := range partial {
		if d {
			marked++
			if !full[fi] {
				t.Fatalf("fault %v marked by the cancelled sweep but not detected", u.Faults[fi])
			}
		}
	}
	if marked != n {
		t.Fatalf("cancelled sweep returned %d, marked %d", n, marked)
	}
	if n == 0 || n >= fullN {
		t.Fatalf("cancelled sweep marked %d of %d: want a strict, non-empty part", n, fullN)
	}
}
