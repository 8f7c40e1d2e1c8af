// Package encoder implements window-based LFSR reseeding for pre-computed
// test sets (Section 2 of the paper).
//
// Each n-bit seed loaded into the LFSR expands into a window of L test
// vectors. Every bit any window vector feeds into a scan cell is a linear
// expression of the n seed variables, so a test cube is encodable at window
// position v iff the linear system equating those expressions with the
// cube's specified bits is consistent. The encoder packs as many cubes as
// possible into each seed using the greedy criteria of the paper:
//
//  1. among solvable systems, prefer cubes with the most specified bits;
//  2. then systems whose solution replaces the fewest free variables;
//  3. then cubes encodable at the fewest remaining window positions;
//  4. then the position nearest the start of the window.
//
// Classical reseeding (one vector per seed) is the special case L = 1.
package encoder

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cube"
	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/scan"
)

// Tables is the symbolic expression table of one decompressor (LFSR +
// phase shifter + scan geometry) at one window length L, mirroring
// atpg.Tables: for every window position and cube bit position, the linear
// expression over the n seed variables that the decompressor produces
// there, plus the equation index of the cube set last encoded. The
// expression for (cycle t, chain ch) is row t·m+ch of the phase shifter's
// own row set (see phaseshifter.PhaseShifter.Rows). The standard
// configuration builds its tables from the rows the shifter's separation
// check already computed, so each design's window — the symbolic
// simulation of Section 3.1 — is simulated once, and TablesCache builds
// each (decompressor, L) once.
//
// Tables is safe for concurrent use. The two regimes are machine-checked
// (internal/lint): the decompressor identity and the rows are frozen after
// construction, and the system-index cache is only touched under mu.
//
// lint:frozen
type Tables struct {
	l      *lfsr.LFSR
	ps     *phaseshifter.PhaseShifter
	geo    scan.Geometry
	winLen int
	rows   gf2.RowSet

	mu sync.Mutex
	// Single-slot system-index cache: re-encodes of one set (benchmark
	// loops, repeated requests) hit it, while Tables held in
	// process-lifetime caches never pin more than the last set encoded.
	lastSet *cube.Set    // guarded by mu
	lastSys *systemIndex // guarded by mu
}

// NewTables validates the decompressor wiring and builds its expression
// table for window length L by symbolic simulation (Rows of the phase
// shifter), polling ctx as it goes. The standard configuration does not
// come through here: StandardConfig and TablesCache reuse the rows of the
// phase shifter's separation check instead.
func NewTables(ctx context.Context, l *lfsr.LFSR, ps *phaseshifter.PhaseShifter, geo scan.Geometry, L int) (*Tables, error) {
	if L < 1 {
		return nil, fmt.Errorf("encoder: window length %d must be ≥ 1", L)
	}
	if ps.Outputs() != geo.Chains {
		return nil, fmt.Errorf("encoder: phase shifter outputs %d != scan chains %d", ps.Outputs(), geo.Chains)
	}
	if ps.Size() != l.Size() {
		return nil, fmt.Errorf("encoder: phase shifter size %d != LFSR size %d", ps.Size(), l.Size())
	}
	rows, err := ps.Rows(ctx, l, L*geo.Length)
	if err != nil {
		return nil, fmt.Errorf("encoder: table build: %w", err)
	}
	return &Tables{l: l, ps: ps, geo: geo, winLen: L, rows: rows}, nil
}

// LFSR returns the decompressor's register; seeds are LFSR().Size() bits.
func (t *Tables) LFSR() *lfsr.LFSR { return t.l }

// PS returns the phase shifter between the LFSR cells and the scan chains.
func (t *Tables) PS() *phaseshifter.PhaseShifter { return t.ps }

// Geo returns the scan-chain geometry the window vectors are shifted into.
func (t *Tables) Geo() scan.Geometry { return t.geo }

// WindowLen returns L, the number of vectors each seed expands into.
func (t *Tables) WindowLen() int { return t.winLen }

// Rows exposes the expression arena as an indexed row set; row t·m+ch is
// the expression of chain ch at absolute cycle t.
func (t *Tables) Rows() gf2.RowSet { return t.rows }

// Stride returns the row-index distance between the same scan cell at
// consecutive window positions: Length·Chains rows per window vector.
func (t *Tables) Stride() int { return t.geo.Length * t.geo.Chains }

// Expr returns the seed-variable expression of cube bit position pos within
// window vector v. The returned vector is a read-only view; do not modify.
func (t *Tables) Expr(v, pos int) gf2.Vec {
	if v < 0 || v >= t.winLen {
		panic(fmt.Sprintf("encoder: window position %d out of range [0,%d)", v, t.winLen))
	}
	ch, depth := t.geo.Cell(pos)
	cyc := v*t.geo.Length + t.geo.ShiftCycle(depth)
	return t.rows.Row(cyc*t.geo.Chains + ch)
}

// Equations appends to buf the linear system that embeds c at window
// position v and returns the extended slice. Coefficient vectors are shared
// views into the table; the solver treats them as read-only.
func (t *Tables) Equations(c cube.Cube, v int, buf []gf2.Equation) []gf2.Equation {
	for pos := c.Mask.FirstSet(); pos >= 0; pos = c.Mask.NextSet(pos + 1) {
		buf = append(buf, gf2.Equation{Coeffs: t.Expr(v, pos), RHS: c.Value.Bit(pos)})
	}
	return buf
}

// MemoryBytes reports the expression arena size, for diagnostics.
func (t *Tables) MemoryBytes() int { return t.rows.Count() * ((t.rows.N() + 63) / 64) * 8 }

// Systems returns the per-cube equation index of one cube set: for every
// cube, the position-0 expression-row indices and right-hand sides of its
// embedding system. The most recent set's index is cached. Sets are
// treated as immutable once handed to the encoder.
func (t *Tables) Systems(set *cube.Set) *systemIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lastSet != set {
		t.lastSet = set
		t.lastSys = newSystemIndex(set, t.geo)
	}
	return t.lastSys
}

// systemIndex precomputes, for every cube of a set, the expression-row
// indices (at window position 0) and right-hand sides of its equation
// system. Probing the cube at window position v shifts every index by
// v·Length·Chains — the table is cycle-major, so one window position is one
// contiguous band of rows.
type systemIndex struct {
	base [][]int32
	rhs  [][]uint8
}

func newSystemIndex(set *cube.Set, geo scan.Geometry) *systemIndex {
	si := &systemIndex{
		base: make([][]int32, set.Len()),
		rhs:  make([][]uint8, set.Len()),
	}
	for ci := range set.Cubes {
		c := set.Cubes[ci]
		spec := c.SpecifiedCount()
		base := make([]int32, 0, spec)
		rhs := make([]uint8, 0, spec)
		for pos := c.Mask.FirstSet(); pos >= 0; pos = c.Mask.NextSet(pos + 1) {
			ch, depth := geo.Cell(pos)
			base = append(base, int32(geo.ShiftCycle(depth)*geo.Chains+ch))
			rhs = append(rhs, c.Value.Bit(pos))
		}
		si.base[ci] = base
		si.rhs[ci] = rhs
	}
	return si
}
