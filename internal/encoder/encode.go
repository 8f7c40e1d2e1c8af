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
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/prng"
	"repro/internal/scan"
)

// Config describes one encoding run.
type Config struct {
	// LFSR is the decompressor's register; seeds are n = LFSR.Size() bits.
	LFSR *lfsr.LFSR
	// PS is the phase shifter between the LFSR cells and the scan chains.
	PS *phaseshifter.PhaseShifter
	// Geo is the scan-chain geometry the window vectors are shifted into.
	Geo scan.Geometry
	// WindowLen is L, the number of vectors each seed expands into.
	// L = 1 is classical reseeding.
	WindowLen int
	// FillSeed keys the deterministic PRNG that fills free seed variables.
	FillSeed uint64
	// Workers bounds the candidate-scan parallelism; 0 means GOMAXPROCS.
	Workers int
	// NoPruning disables monotone feasibility pruning (ablation hook; the
	// result is identical, only slower).
	NoPruning bool
	// Tables optionally supplies prebuilt shared symbolic tables. They must
	// wrap this Config's exact LFSR, PS and Geo values and WindowLen. Nil
	// builds private tables.
	Tables *Tables
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
	// TableBuildTime is the wall time EncodeCtx spent building private
	// symbolic tables (Config.Tables nil) and the cube set's equation
	// index. Tables supplied through Config.Tables — every EncodeAutoCtx
	// encoding, whose tables come from a TablesCache — are built outside
	// EncodeCtx and not counted.
	TableBuildTime time.Duration
}

// TDV returns the test data volume in bits: seeds × n.
func (e *Encoding) TDV() int { return len(e.Seeds) * e.Cfg.LFSR.Size() }

// TSL returns the test sequence length, in vectors, of the original
// window-based scheme: every seed expands into a full window.
func (e *Encoding) TSL() int { return len(e.Seeds) * e.Cfg.WindowLen }

// EncodeCtx compresses the cube set into LFSR seeds. The input set is not
// modified. EncodeCtx fails if some cube cannot be embedded anywhere even
// by a dedicated seed (the LFSR is too small for the test set).
//
// Cancellation is cooperative: a private table build polls the context
// every few symbolic cycles, every candidate-scan worker polls it once per
// checkStride consistency checks and the seed-construction loop polls it at
// every tier boundary, so a cancel or deadline stops the encoder within
// microseconds of the engines noticing. A cancelled encode returns an
// error wrapping context.Canceled or context.DeadlineExceeded; an
// uncancelled run is bit-identical for any Workers value.
func EncodeCtx(ctx context.Context, cfg Config, set *cube.Set) (*Encoding, error) {
	if cfg.WindowLen < 1 {
		return nil, fmt.Errorf("encoder: window length %d must be ≥ 1", cfg.WindowLen)
	}
	if set.Len() == 0 {
		return nil, fmt.Errorf("encoder: empty cube set")
	}
	if set.Width != cfg.Geo.Width {
		return nil, fmt.Errorf("encoder: cube width %d != scan width %d", set.Width, cfg.Geo.Width)
	}
	t0 := time.Now()
	tabs := cfg.Tables
	if tabs == nil {
		var err error
		if tabs, err = NewTables(ctx, cfg.LFSR, cfg.PS, cfg.Geo, cfg.WindowLen); err != nil {
			return nil, err
		}
	} else if tabs.l != cfg.LFSR || tabs.ps != cfg.PS || tabs.geo != cfg.Geo || tabs.winLen != cfg.WindowLen {
		return nil, fmt.Errorf("encoder: Config.Tables built for a different decompressor or window length")
	}
	sys := tabs.Systems(set)
	built := time.Since(t0)
	enc, err := encodeWithTable(ctx, cfg, set, tabs, sys)
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

// scanView is one worker's private probe state: a lazily reduced copy of
// the expression table (see gf2.ReducedTable) plus elimination scratch.
// Views persist across tiers and seeds, so a (cube, position) re-probed
// after a commit only folds in the basis rows added since the last probe
// instead of re-eliminating against the whole basis. tick amortizes the
// worker's context polls across checkStride consistency checks.
type scanView struct {
	view    *gf2.ReducedTable
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
	views  []*scanView
	eqBuf  []gf2.Equation
	checks int64

	// stop is tripped by the first worker that observes a fired context;
	// the other scan workers poll it per cube claim and bail early.
	stop atomic.Bool
}

func encodeWithTable(ctx context.Context, cfg Config, set *cube.Set, table *Tables, sys *systemIndex) (*Encoding, error) {
	st := &encodeState{
		ctx:     ctx,
		cfg:     cfg,
		set:     set,
		table:   table,
		sys:     sys,
		n:       cfg.LFSR.Size(),
		L:       cfg.WindowLen,
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
	st.views = make([]*scanView, st.workers)

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

// viewFor lazily creates the probe state of one worker; unused workers
// never pay for their reduced-table copy.
func (st *encodeState) viewFor(w int) *scanView {
	if st.views[w] == nil {
		st.views[w] = &scanView{view: gf2.NewReducedTable(st.solver, st.table.Rows())}
	}
	return st.views[w]
}

// buildSeed constructs one seed: it commits the densest remaining cube at
// the earliest solvable window position, then greedily folds in more cubes
// per the paper's criteria until nothing else fits.
func (st *encodeState) buildSeed(fill *prng.Source) (Seed, error) {
	st.solver.Reset()
	for _, ci := range st.order {
		if st.remaining[ci] {
			for p := range st.feasible[ci] {
				st.feasible[ci][p] = true
			}
		}
	}

	var seed Seed
	v0 := st.viewFor(0)

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
		if _, ok := v0.view.CheckSystem(st.sys.base[first], int32(p)*st.stride, st.sys.rhs[first], &v0.scratch); ok {
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

// scanCube probes every still-feasible position of one cube through a
// worker's reduced view. Positions proven unsolvable are pruned for the
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
		inc, ok := v.view.CheckSystem(base, int32(p)*st.stride, rhs, &v.scratch)
		if !ok {
			feas[p] = false
			continue
		}
		*out = append(*out, candidate{cube: ci, pos: p, rankInc: inc})
	}
	return local
}

// scanTier checks every still-feasible (cube, position) pair of one tier,
// fanned out over the persistent worker views. The basis is immutable for
// the whole scan, each view and each cube's feasibility row is owned by
// exactly one goroutine at a time, and results are index-addressed — so the
// tie-breaks below see the same candidate set for any worker count.
func (st *encodeState) scanTier(tier []int) (candidate, bool, error) {
	results := make([][]candidate, len(tier))
	var checkCount int64
	workers := st.workers
	if workers > len(tier) {
		workers = len(tier)
	}
	if workers <= 1 {
		v := st.viewFor(0)
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
			v := st.viewFor(w)
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
