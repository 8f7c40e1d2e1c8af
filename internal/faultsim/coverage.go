package faultsim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options tunes the parallel fault-simulation entry points.
type Options struct {
	// Workers is the number of goroutines that sweep the fault list, each
	// with its own Simulator scratch state. 0 or negative means
	// runtime.NumCPU(). Results are bit-identical for any value.
	Workers int
	// LaneWords widens every simulator to that many 64-bit words of
	// pattern lanes, so each sweep covers up to 64×LaneWords patterns
	// (256/512 at 4/8). 0 or negative selects the single-word engine.
	// Results are bit-identical for any value — only the batch cadence
	// changes.
	LaneWords int
}

// LaneWordCount resolves the LaneWords field to an effective lane width.
func (o Options) LaneWordCount() int {
	if o.LaneWords > 0 {
		return o.LaneWords
	}
	return 1
}

// PoolSize resolves the Workers field to an effective pool size, clamped
// to the fault list being swept: never more workers than faults, never
// fewer than one.
func (o Options) PoolSize(numFaults int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	return max(1, min(w, numFaults))
}

// CoverageCtx runs every fault of the universe against the given fully
// specified patterns and returns per-fault detection plus the coverage
// fraction. Patterns are batched 64×LaneWords at a time and each batch is
// swept over u.Faults by DetectAllCtx. The context is polled between
// pattern batches and once per sweep chunk, so a cancel or deadline stops
// the pool within microseconds. A cancelled run returns a nil detected
// slice and an error wrapping context.Canceled or context.DeadlineExceeded;
// an uncancelled run is bit-identical for any Workers and any LaneWords.
func CoverageCtx(ctx context.Context, u *Universe, patterns [][]uint8, opt Options) (detected []bool, coverage float64, err error) {
	sims, err := NewSimulatorPool(u, opt.PoolSize(len(u.Faults)), opt.LaneWordCount())
	if err != nil {
		return nil, 0, err
	}
	detected = make([]bool, len(u.Faults))
	batch := sims[0].Capacity()
	for start := 0; start < len(patterns); start += batch {
		end := min(start+batch, len(patterns))
		if err := sims[0].LoadPatterns(patterns[start:end]); err != nil {
			return nil, 0, err
		}
		for _, sim := range sims[1:] {
			sim.AdoptPatterns(sims[0])
		}
		if _, err := DetectAllCtx(ctx, sims, u.Faults, detected); err != nil {
			return nil, 0, fmt.Errorf("faultsim: coverage stopped at pattern %d/%d: %w", start, len(patterns), err)
		}
	}
	nd := 0
	for _, d := range detected {
		if d {
			nd++
		}
	}
	if len(u.Faults) > 0 {
		coverage = float64(nd) / float64(len(u.Faults))
	}
	return detected, coverage, nil
}

// NewSimulatorPool builds n simulators of the given lane width over one
// universe (see NewSimulator). The shared topology is computed once up
// front, so the per-simulator cost is only the scratch arenas.
func NewSimulatorPool(u *Universe, n, laneWords int) ([]*Simulator, error) {
	sims := make([]*Simulator, n)
	for i := range sims {
		sim, err := NewSimulator(u, laneWords)
		if err != nil {
			return nil, err
		}
		sims[i] = sim
	}
	return sims, nil
}

// sweepChunk is how many consecutive faults a sweep worker claims at a
// time, and so how often it polls the context: one DetectAny costs at
// least a microsecond, so 256 faults bound cancellation latency well below
// a millisecond while the claim and poll costs stay unmeasurable.
const sweepChunk = 256

// DetectAllCtx sweeps faults against the patterns loaded into the
// simulator pool and marks newly detected ones in detected, indexed like
// faults (entries already true are skipped, the standard fault-drop rule).
// Every simulator must have the same patterns loaded. Workers claim fixed
// sweepChunk-fault index ranges from an atomic counter, one simulator
// each, with sims[0] running on the calling goroutine. Each range is
// claimed exactly once, so the writes never race, and a fault's detection
// depends only on the fault and the patterns, so the marking does not
// depend on scheduling. It returns the number of faults newly marked. The
// context is polled once per chunk; on cancellation detected holds a valid
// partial marking (every true entry is genuinely detected) and the error
// wraps context.Canceled or context.DeadlineExceeded.
func DetectAllCtx(ctx context.Context, sims []*Simulator, faults []Fault, detected []bool) (int, error) {
	var next, marked atomic.Int64
	sweep := func(sim *Simulator) {
		n := int64(0)
		for ctx.Err() == nil {
			start := int(next.Add(sweepChunk)) - sweepChunk
			if start >= len(faults) {
				break
			}
			end := min(start+sweepChunk, len(faults))
			done := detected[start:end]
			for i, f := range faults[start:end] {
				if !done[i] && sim.DetectAny(f) {
					done[i] = true
					n++
				}
			}
		}
		marked.Add(n)
	}
	var wg sync.WaitGroup
	for _, sim := range sims[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweep(sim)
		}()
	}
	sweep(sims[0])
	wg.Wait()
	return int(marked.Load()), ctx.Err()
}
