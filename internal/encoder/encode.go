package encoder

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cube"
	"repro/internal/gf2"
	"repro/internal/prng"
)

// Config describes one encoding run.
type Config struct {
	// Tables is the decompressor (LFSR, phase shifter, scan geometry) at
	// window length L together with its symbolic expression table; seeds
	// are n = Tables.LFSR().Size() bits and each expands into
	// Tables.WindowLen() vectors (L = 1 is classical reseeding). Build it
	// with NewTables, StandardConfig or a TablesCache; it may be shared by
	// any number of concurrent encodings.
	Tables *Tables
	// FillSeed keys the deterministic PRNG that fills free seed variables.
	FillSeed uint64
	// Workers bounds the candidate-scan parallelism; 0 means GOMAXPROCS.
	Workers int
	// NoPruning disables monotone feasibility pruning (ablation hook; the
	// result is identical, only slower).
	NoPruning bool
}

// Assignment records where one cube was deterministically embedded.
type Assignment struct {
	Cube int // index into the input cube set
	Pos  int // window position (vector index within the seed's window)
}

// Seed is one computed LFSR seed together with the cubes it encodes.
type Seed struct {
	// Value is the n-bit LFSR state loaded at the start of the window.
	Value gf2.Vec
	// Assignments lists the cubes deliberately embedded in this seed's
	// window, in the order the encoder committed them.
	Assignments []Assignment
}

// Encoding is the result of compressing a cube set.
type Encoding struct {
	// Cfg is the configuration the encoding was computed with.
	Cfg Config
	// Set is the encoded cube set; Assignment.Cube indexes into it.
	Set *cube.Set
	// Seeds are the computed seeds, in generation order.
	Seeds []Seed
	// ChecksPerformed counts linear-system consistency checks, a measure of
	// encoder effort used by the pruning ablation.
	ChecksPerformed int64
	// TableBuildTime is the wall time EncodeCtx spent building the cube
	// set's equation index (see Tables.Systems). The symbolic tables in
	// Config.Tables are built before EncodeCtx runs and are not counted.
	TableBuildTime time.Duration
}

// TDV returns the test data volume in bits: seeds × n.
func (e *Encoding) TDV() int { return len(e.Seeds) * e.Cfg.Tables.l.Size() }

// TSL returns the test sequence length, in vectors, of the original
// window-based scheme: every seed expands into a full window.
func (e *Encoding) TSL() int { return len(e.Seeds) * e.Cfg.Tables.winLen }

// EncodeCtx compresses the cube set into LFSR seeds with the decompressor
// of cfg.Tables. The input set is not modified. EncodeCtx fails if some
// cube cannot be embedded anywhere even by a dedicated seed (the LFSR is
// too small for the test set).
//
// Cancellation is cooperative: every candidate-scan worker polls the
// context once per checkStride consistency checks and the
// seed-construction loop polls it at every tier boundary, so a cancel or
// deadline stops the encoder within microseconds of the engines noticing.
// A cancelled encode returns an error wrapping context.Canceled or
// context.DeadlineExceeded; an uncancelled run is bit-identical for any
// Workers value.
func EncodeCtx(ctx context.Context, cfg Config, set *cube.Set) (*Encoding, error) {
	tabs := cfg.Tables
	if tabs == nil {
		return nil, fmt.Errorf("encoder: Config.Tables is nil")
	}
	if set.Len() == 0 {
		return nil, fmt.Errorf("encoder: empty cube set")
	}
	if set.Width != tabs.geo.Width {
		return nil, fmt.Errorf("encoder: cube width %d != scan width %d", set.Width, tabs.geo.Width)
	}
	t0 := time.Now()
	sys := tabs.Systems(set)
	built := time.Since(t0)
	enc, err := encodeWithTable(ctx, cfg, set, sys)
	if err != nil {
		return nil, err
	}
	enc.TableBuildTime = built
	return enc, nil
}

// candidate is one solvable (cube, position) system found during a scan.
type candidate struct {
	cube    int
	pos     int
	rankInc int
}

// scanView is one worker's private probe state: the overlay scratch of
// the shared reducer (used while a seed has 64 or more free variables)
// and a tick that amortizes the worker's context polls across checkStride
// consistency checks.
type scanView struct {
	scratch gf2.CheckScratch
	tick    int
}

// checkStride is how many consistency checks a scan worker performs
// between context polls. One CheckSystem costs tens of nanoseconds at
// minimum, so polling every 256 checks keeps cancellation latency in the
// tens of microseconds while the amortized poll cost stays below
// measurement noise.
const checkStride = 256

// pollCtx advances a worker's poll tick and, once per checkStride calls,
// checks the encode context. A fired context trips the shared stop flag so
// every other worker bails at its next cube claim.
func (st *encodeState) pollCtx(v *scanView) bool {
	if v.tick++; v.tick >= checkStride {
		v.tick = 0
		if st.ctx.Err() != nil {
			st.stop.Store(true)
			return true
		}
	}
	return false
}

type encodeState struct {
	ctx     context.Context
	cfg     Config
	set     *cube.Set
	table   *Tables
	sys     *systemIndex
	n       int
	L       int
	stride  int32 // expression rows per window position
	workers int

	// order holds cube indices sorted by descending specified count; tiers
	// are contiguous runs of equal counts.
	order     []int
	remaining []bool // indexed by cube: still to be encoded
	nRemain   int

	// feasible[cube][pos]: not yet proven unsolvable for the current seed.
	feasible [][]bool

	solver *gf2.Solver
	// red tabulates the solver's basis for every scan worker; it is
	// reloaded after each basis change, before the scan fans out.
	red *gf2.Reducer
	// full is set once the seed's basis reaches rank n. The seed is then
	// unique and win holds the value of every expression row under it,
	// one bit per row, so each verdict compares a cube's care bits with
	// window bits instead of eliminating.
	full  bool
	win   []uint64
	views []scanView

	eqBuf  []gf2.Equation
	checks int64

	// stop is tripped by the first worker that observes a fired context;
	// the other scan workers poll it per cube claim and bail early.
	stop atomic.Bool
}

func encodeWithTable(ctx context.Context, cfg Config, set *cube.Set, sys *systemIndex) (*Encoding, error) {
	st := newEncodeState(ctx, cfg, set, sys)
	enc := &Encoding{Cfg: cfg, Set: set}
	fill := prng.New(cfg.FillSeed)
	for st.nRemain > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("encoder: encode stopped after %d seeds (%d/%d cubes): %w",
				len(enc.Seeds), set.Len()-st.nRemain, set.Len(), err)
		}
		seed, err := st.buildSeed(fill)
		if err != nil {
			return nil, err
		}
		enc.Seeds = append(enc.Seeds, seed)
	}
	enc.ChecksPerformed = st.checks
	return enc, nil
}

// newEncodeState prepares the greedy encoder's state for one cube set:
// the cube order, the empty solver and the scan's shared reducer, window
// bits and per-worker views.
func newEncodeState(ctx context.Context, cfg Config, set *cube.Set, sys *systemIndex) *encodeState {
	table := cfg.Tables
	st := &encodeState{
		ctx:     ctx,
		cfg:     cfg,
		set:     set,
		table:   table,
		sys:     sys,
		n:       table.l.Size(),
		L:       table.winLen,
		stride:  int32(table.Stride()),
		workers: cfg.Workers,
	}
	if st.workers <= 0 {
		st.workers = runtime.GOMAXPROCS(0)
	}
	st.order = make([]int, set.Len())
	for i := range st.order {
		st.order[i] = i
	}
	sort.SliceStable(st.order, func(a, b int) bool {
		return set.Cubes[st.order[a]].SpecifiedCount() > set.Cubes[st.order[b]].SpecifiedCount()
	})
	st.remaining = make([]bool, set.Len())
	for i := range st.remaining {
		st.remaining[i] = true
	}
	st.nRemain = set.Len()
	st.feasible = make([][]bool, set.Len())
	for i := range st.feasible {
		st.feasible[i] = make([]bool, st.L)
	}
	st.solver = gf2.NewSolver(st.n)
	rows := table.Rows()
	st.red = gf2.NewReducer(rows)
	st.win = make([]uint64, (rows.Count()+63)/64)
	st.views = make([]scanView, st.workers)
	return st
}

// check tests whether cube system (base+offset, rhs) is consistent with
// the seed's basis and returns the rank increase it would cause. At full
// rank no system can add rank, and it is consistent iff every care bit
// equals the unique seed's window bit at that row.
func (st *encodeState) check(v *scanView, base []int32, offset int32, rhs []uint8) (int, bool) {
	if !st.full {
		return st.red.CheckSystem(base, offset, rhs, &v.scratch)
	}
	rhs = rhs[:len(base)] // one bounds check for the loop
	for k, ri := range base {
		i := uint32(ri + offset)
		if uint8(st.win[i/64]>>(i%64))&1 != rhs[k] {
			return 0, false
		}
	}
	return 0, true
}

// basisChanged brings the scan's view of the basis up to date after a
// Reset or a commit: it retabulates the reducer, or, once the rank
// reaches n, evaluates the now-unique seed over the whole table.
func (st *encodeState) basisChanged() {
	switch {
	case st.full:
		// A full-rank basis admits no further change: the seed is fixed.
	case st.solver.Rank() == st.n:
		st.full = true
		seed := st.solver.Solution(func(int) uint8 { return 0 })
		st.table.Rows().Eval(seed, st.win)
	default:
		st.red.Load(st.solver)
	}
}

// buildSeed constructs one seed: it commits the densest remaining cube at
// the earliest solvable window position, then greedily folds in more cubes
// per the paper's criteria until nothing else fits.
func (st *encodeState) buildSeed(fill *prng.Source) (Seed, error) {
	st.solver.Reset()
	st.full = false
	st.basisChanged()
	for _, ci := range st.order {
		if st.remaining[ci] {
			for p := range st.feasible[ci] {
				st.feasible[ci][p] = true
			}
		}
	}

	var seed Seed
	v0 := &st.views[0]

	// First cube: densest remaining, at the first solvable position
	// (position 0 in the common case the paper assumes).
	first := -1
	for _, ci := range st.order {
		if st.remaining[ci] {
			first = ci
			break
		}
	}
	firstPos := -1
	for p := 0; p < st.L; p++ {
		if st.pollCtx(v0) {
			return Seed{}, fmt.Errorf("encoder: encode stopped scanning cube %d: %w", first, st.ctx.Err())
		}
		st.checks++
		if _, ok := st.check(v0, st.sys.base[first], int32(p)*st.stride, st.sys.rhs[first]); ok {
			firstPos = p
			break
		}
	}
	if firstPos < 0 {
		return Seed{}, fmt.Errorf("encoder: cube %d (%d specified bits) cannot be embedded anywhere in a fresh window; increase the LFSR size (n=%d)", first, st.set.Cubes[first].SpecifiedCount(), st.n)
	}
	st.commit(first, firstPos, &seed)

	for {
		cand, ok, err := st.scanTiers()
		if err != nil {
			return Seed{}, err
		}
		if !ok {
			break
		}
		st.commit(cand.cube, cand.pos, &seed)
	}

	seed.Value = st.solver.Solution(func(int) uint8 { return fill.Bit() })
	return seed, nil
}

func (st *encodeState) commit(ci, pos int, seed *Seed) {
	st.eqBuf = st.table.Equations(st.set.Cubes[ci], pos, st.eqBuf[:0])
	if _, ok := st.solver.AddSystem(st.eqBuf); !ok {
		panic("encoder: committing a system that was just verified solvable")
	}
	st.basisChanged()
	seed.Assignments = append(seed.Assignments, Assignment{Cube: ci, Pos: pos})
	st.remaining[ci] = false
	st.nRemain--
}

// scanTiers walks specified-count tiers in descending order and returns the
// winning candidate of the first tier that has any solvable system, applying
// the paper's tie-breaks.
func (st *encodeState) scanTiers() (candidate, bool, error) {
	i := 0
	for i < len(st.order) {
		// Delimit the next tier of equal specified counts, skipping
		// already-encoded cubes.
		for i < len(st.order) && !st.remaining[st.order[i]] {
			i++
		}
		if i >= len(st.order) {
			return candidate{}, false, nil
		}
		spec := st.set.Cubes[st.order[i]].SpecifiedCount()
		var tier []int
		for i < len(st.order) && st.set.Cubes[st.order[i]].SpecifiedCount() == spec {
			if st.remaining[st.order[i]] {
				tier = append(tier, st.order[i])
			}
			i++
		}
		cand, ok, err := st.scanTier(tier)
		if err != nil {
			return candidate{}, false, err
		}
		if ok {
			return cand, true, nil
		}
	}
	return candidate{}, false, nil
}

// scanCube probes every still-feasible position of one cube with a
// worker's scratch. Positions proven unsolvable are pruned for the
// rest of this seed's construction (constraints only grow, so unsolvable
// stays unsolvable).
func (st *encodeState) scanCube(v *scanView, ci int, out *[]candidate) int64 {
	feas := st.feasible[ci]
	base, rhs := st.sys.base[ci], st.sys.rhs[ci]
	var local int64
	for p := 0; p < st.L; p++ {
		if !feas[p] && !st.cfg.NoPruning {
			continue
		}
		if st.pollCtx(v) {
			return local // cancelled: the caller discards this tier's scan
		}
		local++
		inc, ok := st.check(v, base, int32(p)*st.stride, rhs)
		if !ok {
			feas[p] = false
			continue
		}
		*out = append(*out, candidate{cube: ci, pos: p, rankInc: inc})
	}
	return local
}

// scanTier checks every still-feasible (cube, position) pair of one tier,
// fanned out over the workers. The basis, the reducer's tables and the
// window bits are immutable for the whole scan, each view and each cube's
// feasibility row is owned by exactly one goroutine at a time, and results
// are index-addressed — so the tie-breaks below see the same candidate set
// for any worker count.
func (st *encodeState) scanTier(tier []int) (candidate, bool, error) {
	results := make([][]candidate, len(tier))
	var checkCount int64
	workers := st.workers
	if workers > len(tier) {
		workers = len(tier)
	}
	if workers <= 1 {
		v := &st.views[0]
		for ti, ci := range tier {
			if st.stop.Load() {
				break
			}
			checkCount += st.scanCube(v, ci, &results[ti])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		var mu sync.Mutex
		for w := 0; w < workers; w++ {
			v := &st.views[w]
			wg.Add(1)
			go func(v *scanView) {
				defer wg.Done()
				var local int64
				for !st.stop.Load() {
					ti := int(next.Add(1)) - 1
					if ti >= len(tier) {
						break
					}
					local += st.scanCube(v, tier[ti], &results[ti])
				}
				mu.Lock()
				checkCount += local
				mu.Unlock()
			}(v)
		}
		wg.Wait()
	}
	st.checks += checkCount
	if st.stop.Load() {
		// A cancelled scan saw only part of its tier; its candidates must
		// not influence a committed encoding.
		return candidate{}, false, fmt.Errorf("encoder: candidate scan stopped: %w", st.ctx.Err())
	}

	// Tie-break 1: fewest replaced variables (minimum rank increase).
	minInc := -1
	for _, cands := range results {
		for _, c := range cands {
			if minInc < 0 || c.rankInc < minInc {
				minInc = c.rankInc
			}
		}
	}
	if minInc < 0 {
		return candidate{}, false, nil
	}
	// Tie-break 2: the cube encodable at the fewest window positions.
	solvableCount := make(map[int]int)
	for _, cands := range results {
		for _, c := range cands {
			solvableCount[c.cube]++
		}
	}
	best := candidate{cube: -1}
	bestCount := 0
	for _, cands := range results {
		for _, c := range cands {
			if c.rankInc != minInc {
				continue
			}
			cnt := solvableCount[c.cube]
			if best.cube < 0 ||
				cnt < bestCount ||
				// Tie-break 3: nearest to the start of the window.
				(cnt == bestCount && c.pos < best.pos) ||
				(cnt == bestCount && c.pos == best.pos && c.cube < best.cube) {
				best = c
				bestCount = cnt
			}
		}
	}
	return best, true, nil
}
