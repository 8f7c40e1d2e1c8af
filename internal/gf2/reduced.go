package gf2

import (
	"fmt"
	"math/bits"
)

// RowSet is a read-only set of equal-width coefficient rows backed by one
// contiguous word arena: row i occupies arena words [i·words, (i+1)·words).
// Symbolic expression tables (one row per decompressor output slot) hand
// their arena to a RowSet so solvers can address equations by row index
// instead of materialised Equation values. Row sets are shared read-only
// across concurrent scanners; the frozentables analyzer
// (internal/lint) rejects any write through a RowSet.
//
// lint:frozen
type RowSet struct {
	n     int
	words int
	arena []uint64
}

// NewRowSet wraps arena as a set of n-bit rows. The arena length must be a
// multiple of the per-row word count.
func NewRowSet(n int, arena []uint64) RowSet {
	if n <= 0 {
		panic(fmt.Sprintf("gf2: row set needs positive width, got %d", n))
	}
	w := wordsFor(n)
	if len(arena)%w != 0 {
		panic(fmt.Sprintf("gf2: row-set arena of %d words not a multiple of row width %d", len(arena), w))
	}
	return RowSet{n: n, words: w, arena: arena}
}

// N returns the row width in bits.
func (rs RowSet) N() int { return rs.n }

// Count returns the number of rows.
func (rs RowSet) Count() int { return len(rs.arena) / rs.words }

// Row returns the arena-backed view of row i. The view is read-only by
// convention; callers must not modify it.
func (rs RowSet) Row(i int) Vec {
	return VecView(rs.n, rs.arena[i*rs.words:(i+1)*rs.words])
}

// Eval evaluates every row at x and packs the results one bit per row:
// bit i of dst (word i/64, bit i%64) is row i · x. dst must hold at least
// ⌈Count/64⌉ words; it is overwritten. With x the unique solution of a
// full-rank system, the packed bits are the concrete values behind every
// row, so a row's equation holds iff its bit equals the right-hand side.
func (rs RowSet) Eval(x Vec, dst []uint64) {
	if x.n != rs.n {
		panic(fmt.Sprintf("gf2: evaluating %d-bit rows at a %d-bit vector", rs.n, x.n))
	}
	count := rs.Count()
	for i := range dst[:wordsFor(count)] {
		dst[i] = 0
	}
	if rs.words == 1 {
		xw := x.words[0]
		for i, r := range rs.arena {
			dst[i/wordBits] |= uint64(bits.OnesCount64(r&xw)&1) << (uint(i) % wordBits)
		}
		return
	}
	for i := 0; i < count; i++ {
		dst[i/wordBits] |= uint64(rs.Row(i).Dot(x)) << (uint(i) % wordBits)
	}
}

// chunkBits is the Four-Russians chunk width: a Reducer looks a row up
// one byte at a time.
const chunkBits = 8

// Reducer tests systems of RowSet rows for consistency with a solver's
// basis by the method of Four Russians (Arlazarov et al., 1970).
//
// Because the basis is kept in reduced row-echelon form with each row's
// pivot as its lowest set bit, reducing a row x against it is linear:
// reduce(x) = x ⊕ Σ basis[c] over the pivots c set in x, and the
// right-hand side the basis folds in is δ(x) = Σ rhs[c] over the same
// pivots. The residual has bits only in the f = n − rank free (non-pivot)
// columns, so a Reducer records it in free-column coordinates — the i-th
// free column, ascending, is bit i — with δ in bit f. That keeps the lowest
// set bit lowest, so pivots, rank and consistency are unchanged, and below
// 64 free columns every residual, whatever n, fits one word.
//
// Load tabulates these (f+1)-bit images of v·2^(8j) for every byte chunk j
// and byte value v; a row then reduces with one table lookup per byte. The
// tables hold ⌈n/8⌉·256 entries of ⌈(f+1)/64⌉ words (below 64 free
// columns 10 KB at n = 39, 22 KB at n = 85), which Load rebuilds in
// microseconds.
//
// A Reducer holds no per-row state. Between Loads it is read-only, so any
// number of goroutines may call CheckSystem on one Reducer concurrently;
// Load itself must not overlap CheckSystem.
type Reducer struct {
	src    RowSet
	chunks int      // ⌈n/8⌉ byte chunks per row
	free   int      // f: free columns of the loaded basis
	ew     int      // words per table entry: ⌈(f+1)/64⌉
	tab    []uint64 // entry (j, v) at words [(j·256+v)·ew, +ew)
	col    []int    // free-column coordinate of each free column
}

// NewReducer returns a reducer over the rows of src. It must be Loaded
// with a solver before its first CheckSystem.
func NewReducer(src RowSet) *Reducer {
	chunks := (src.n + chunkBits - 1) / chunkBits
	return &Reducer{
		src:    src,
		chunks: chunks,
		tab:    make([]uint64, chunks<<chunkBits*wordsFor(src.n+1)),
		col:    make([]int, src.n),
	}
}

// Load tabulates solver s's current basis. It must be called again after
// every change to the basis (Add, AddSystem, Reset) before the next
// CheckSystem.
func (rd *Reducer) Load(s *Solver) {
	n := rd.src.n
	if s.n != n {
		panic(fmt.Sprintf("gf2: reducer width %d != solver variables %d", n, s.n))
	}
	f := 0
	for c := 0; c < n; c++ {
		if !s.occ[c] {
			rd.col[c] = f
			f++
		}
	}
	ew := wordsFor(f + 1)
	rd.free, rd.ew = f, ew
	tab := rd.tab[:rd.chunks<<chunkBits*ew]
	clear(tab)
	set := func(e []uint64, b int) { e[b/wordBits] ^= 1 << (uint(b) % wordBits) }
	for j := 0; j < rd.chunks; j++ {
		base := j << chunkBits
		// Seed the single-bit entries, then fill every other byte value
		// as the XOR of its lowest bit's entry and the rest's.
		for b := 0; b < chunkBits; b++ {
			c := j*chunkBits + b
			if c >= n {
				break
			}
			e := tab[(base+1<<b)*ew : (base+1<<b+1)*ew]
			if !s.occ[c] {
				set(e, rd.col[c])
				continue
			}
			// The basis row of pivot c trades bit c for its free columns
			// and its right-hand side.
			for k, bw := range s.basis[c*s.words : (c+1)*s.words] {
				for bw &^= s.piv.words[k]; bw != 0; bw &= bw - 1 {
					set(e, rd.col[k*wordBits+bits.TrailingZeros64(bw)])
				}
			}
			if s.rhs[c] != 0 {
				set(e, f)
			}
		}
		for v := 3; v < 1<<chunkBits; v++ {
			lo := v & -v
			if lo == v {
				continue
			}
			e := tab[(base+v)*ew : (base+v+1)*ew]
			a := tab[(base+lo)*ew : (base+lo+1)*ew]
			r := tab[(base+v-lo)*ew : (base+v-lo+1)*ew]
			for k := range e {
				e[k] = a[k] ^ r[k]
			}
		}
	}
}

// reduce writes row x's image against the loaded basis into dst (ew
// words): its residual in free-column coordinates, and δ(x) in bit f.
func (rd *Reducer) reduce(dst, x []uint64) {
	ew := rd.ew
	clear(dst)
	for j := 0; j < rd.chunks; j++ {
		v := int(x[j*chunkBits/wordBits]>>(uint(j*chunkBits)%wordBits)) & (1<<chunkBits - 1)
		i := j<<chunkBits | v
		for k, e := range rd.tab[i*ew : (i+1)*ew] {
			dst[k] ^= e
		}
	}
}

// CheckSystem tests whether the system {(src row idx[k]+offset, rhs[k])} is
// consistent with the loaded basis, without mutating anything — the
// table-driven counterpart of Solver.Check. It returns the rank increase
// the system would cause and whether it is consistent. The offset shifts
// every index by the same amount, so callers probing one cube at
// successive window positions pass the position-0 indices plus a
// per-position stride.
//
// Each row's image carries its right-hand side in bit f, so eliminating it
// against an overlay of the system's earlier rows leaves 0 (dependent,
// consistent), exactly bit f (a contradiction) or a new overlay pivot.
// Below 64 free columns the overlay lives on the stack; scratch holds it
// otherwise.
func (rd *Reducer) CheckSystem(idx []int32, offset int32, rhs []uint8, scratch *CheckScratch) (rankIncrease int, consistent bool) {
	if rd.ew == 1 {
		return rd.checkSystem1(idx, offset, rhs)
	}
	f, w := rd.free, rd.src.words
	scratch.init(f + 1)
	defer scratch.release()
	for k, ri := range idx {
		i := int(ri + offset)
		dst := scratch.getRow(f + 1)
		rd.reduce(dst.words, rd.src.arena[i*w:(i+1)*w])
		if rhs[k]&1 != 0 {
			dst.FlipBit(f)
		}
		for b := dst.FirstSetAnd(scratch.overlayMask); b >= 0; b = dst.FirstSetAnd(scratch.overlayMask) {
			dst.Xor(scratch.overlay[b])
		}
		p := dst.FirstSet()
		if p < 0 {
			scratch.rowPoolNext-- // recycle immediately
			continue
		}
		if p == f {
			return 0, false
		}
		scratch.overlay[p] = dst
		scratch.overlayMask.SetBit(p, 1)
		scratch.overlaySet = append(scratch.overlaySet, p)
	}
	return len(scratch.overlaySet), true
}

// checkSystem1 is CheckSystem below 64 free columns — every check of a
// register of at most 63 cells, and every check of a wider one once its
// seed has 64 or fewer free variables left: a row's image is one word and
// the overlay lives on the stack.
func (rd *Reducer) checkSystem1(idx []int32, offset int32, rhs []uint8) (rankIncrease int, consistent bool) {
	f, w := uint(rd.free), rd.src.words
	tab := rd.tab[:rd.chunks<<chunkBits]
	arena := rd.src.arena
	var ovMask uint64
	var ovRows [wordBits]uint64 // only entries under ovMask are ever read
	rank := 0
	for k, ri := range idx {
		i := int(ri+offset) * w
		y := uint64(rhs[k]&1) << f
		for wi, j0 := 0, 0; wi < w; wi, j0 = wi+1, j0+wordBits/chunkBits {
			for j, x := j0, arena[i+wi]; x != 0; j++ {
				y ^= tab[j<<chunkBits|int(x&(1<<chunkBits-1))]
				x >>= chunkBits
			}
		}
		// Eliminate against every overlay row in ascending pivot order,
		// masked by the pivot bit: the trip count changes only when the
		// overlay grows, so the loop predicts well.
		for m := ovMask; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			y ^= ovRows[b] & -(y >> uint(b) & 1)
		}
		if y == 0 {
			continue
		}
		p := bits.TrailingZeros64(y)
		if uint(p) == f {
			return 0, false
		}
		ovRows[p] = y
		ovMask |= 1 << uint(p)
		rank++
	}
	return rank, true
}
