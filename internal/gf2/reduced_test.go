package gf2

import (
	"testing"

	"repro/internal/prng"
)

// randRowSet builds a RowSet of count random n-bit rows plus matching
// Equation values over the same backing words.
func randRowSet(src *prng.Source, n, count int) (RowSet, []Equation) {
	w := wordsFor(n)
	arena := make([]uint64, count*w)
	rs := NewRowSet(n, arena)
	eqs := make([]Equation, count)
	for i := 0; i < count; i++ {
		row := rs.Row(i)
		for b := 0; b < n; b++ {
			row.SetBit(b, src.Bit())
		}
		eqs[i] = Equation{Coeffs: row, RHS: src.Bit()}
	}
	return rs, eqs
}

// TestCheckSystemAgreesWithCheck drives a solver through interleaved
// commits, resets and checks and asserts that Reducer.CheckSystem returns
// exactly what the naive Solver.Check returns for the same rows, at zero
// and non-zero offsets. Widths cover n ∈ [1, 130] at random plus the
// word boundaries 63/64/65 and 127/128/129, where rows and free-column
// images change word count.
func TestCheckSystemAgreesWithCheck(t *testing.T) {
	widths := []int{63, 64, 65, 127, 128, 129}
	src := prng.New(2718)
	for len(widths) < 36 {
		widths = append(widths, 1+src.Intn(130))
	}
	for wi, n := range widths {
		src := prng.New(uint64(wi)*2718 + 1)
		count := 4 + src.Intn(40)
		rs, eqs := randRowSet(src, n, count)
		s := NewSolver(n)
		rd := NewReducer(rs)
		rd.Load(s)
		var scN, scR CheckScratch
		// Rare resets and frequent commits sweep the rank from 0 to n, so
		// both the one-word path (under 64 free columns) and the generic
		// one run at every width past 64.
		for step := 0; step < 3*n+60; step++ {
			switch op := src.Intn(100); {
			case op == 0: // reset: new seed computation begins
				s.Reset()
				rd.Load(s)
			case op < 15: // commit a table row, then retabulate the basis
				s.Add(eqs[src.Intn(count)])
				rd.Load(s)
			case op < 30: // commit a random equation
				s.Add(Equation{Coeffs: randVec(src, n), RHS: src.Bit()})
				rd.Load(s)
			default: // check a random subsystem both ways
				k := 1 + src.Intn(6)
				off := src.Intn(count)
				idx := make([]int32, k)
				rhs := make([]uint8, k)
				sys := make([]Equation, k)
				for i := 0; i < k; i++ {
					ri := off + src.Intn(count-off)
					idx[i] = int32(ri - off)
					rhs[i] = eqs[ri].RHS
					sys[i] = eqs[ri]
				}
				if k > 1 && src.Intn(3) == 0 {
					// Repeat the first row with a random right-hand side:
					// a dependency, or a contradiction, at any rank.
					idx[k-1] = idx[0]
					rhs[k-1] = rhs[0] ^ src.Bit()
					sys[k-1] = Equation{Coeffs: sys[0].Coeffs, RHS: rhs[k-1]}
				}
				wantInc, wantOK := s.Check(sys, &scN)
				gotInc, gotOK := rd.CheckSystem(idx, int32(off), rhs, &scR)
				if wantInc != gotInc || wantOK != gotOK {
					t.Fatalf("n=%d rank %d step %d: CheckSystem (%d,%v) != Check (%d,%v)",
						n, s.Rank(), step, gotInc, gotOK, wantInc, wantOK)
				}
			}
		}
	}
}

// TestResidualMatchesFreshReduction pins the table-driven image of a row —
// its residual in free-column coordinates and the folded right-hand side
// in bit f — against reducing the row with the solver itself, from a
// basis with more than 64 free columns down to full rank.
func TestResidualMatchesFreshReduction(t *testing.T) {
	for _, n := range []int{40, 63, 64, 65, 128, 129} {
		src := prng.New(99 + uint64(n))
		rs, _ := randRowSet(src, n, 25)
		s := NewSolver(n)
		rd := NewReducer(rs)
		fresh := NewVec(n)
		for step := 0; s.Rank() < n; step++ {
			s.Add(Equation{Coeffs: randVec(src, n), RHS: src.Bit()})
			rd.Load(s)
			f := n - s.Rank()
			got := NewVec(f + 1)
			for j := 0; j < 3; j++ {
				i := src.Intn(25)
				rd.reduce(got.words, rs.Row(i).words)
				delta := s.reduceInto(fresh, Equation{Coeffs: rs.Row(i), RHS: 0})
				// Compress the fresh residual into free-column coordinates.
				want := NewVec(f + 1)
				col := 0
				for c := 0; c < n; c++ {
					if s.occ[c] {
						if fresh.Bit(c) != 0 {
							t.Fatalf("n=%d step %d: fresh residual has pivot bit %d", n, step, c)
						}
						continue
					}
					want.SetBit(col, fresh.Bit(c))
					col++
				}
				// delta is defined by: equation (row, rhs) reduces to RHS rhs ⊕ delta.
				want.SetBit(f, delta)
				if !got.Equal(want) {
					t.Fatalf("n=%d step %d row %d (f=%d): image mismatch\n got %v\nwant %v", n, step, i, f, got, want)
				}
			}
		}
	}
}

// TestCheckSystemOffset checks the index-offset addressing used by the
// encoder's per-position probes.
func TestCheckSystemOffset(t *testing.T) {
	src := prng.New(7)
	n := 16
	rs, eqs := randRowSet(src, n, 12)
	s := NewSolver(n)
	s.Add(eqs[0])
	rd := NewReducer(rs)
	rd.Load(s)
	var sc CheckScratch
	for off := int32(0); off < 8; off++ {
		idx := []int32{0, 1, 2, 3}
		rhs := []uint8{eqs[off].RHS, eqs[off+1].RHS, eqs[off+2].RHS, eqs[off+3].RHS}
		sys := []Equation{eqs[off], eqs[off+1], eqs[off+2], eqs[off+3]}
		var scN CheckScratch
		wantInc, wantOK := s.Check(sys, &scN)
		gotInc, gotOK := rd.CheckSystem(idx, off, rhs, &sc)
		if wantInc != gotInc || wantOK != gotOK {
			t.Fatalf("offset %d: (%d,%v) != (%d,%v)", off, gotInc, gotOK, wantInc, wantOK)
		}
	}
}

// TestRowSetEval pins the packed row evaluation against Dot, for one- and
// two-word rows and a row count that leaves the last word partial.
func TestRowSetEval(t *testing.T) {
	for _, n := range []int{20, 64, 85} {
		src := prng.New(uint64(n))
		rs, eqs := randRowSet(src, n, 150)
		x := randVec(src, n)
		dst := make([]uint64, 3)
		for i := range dst {
			dst[i] = ^uint64(0) // Eval must overwrite, not accumulate
		}
		rs.Eval(x, dst)
		for i, eq := range eqs {
			if got := uint8(dst[i/64] >> (i % 64) & 1); got != eq.Coeffs.Dot(x) {
				t.Fatalf("n=%d row %d: Eval bit %d, Dot %d", n, i, got, eq.Coeffs.Dot(x))
			}
		}
	}
}

func TestRowSetValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged arena accepted")
		}
	}()
	NewRowSet(65, make([]uint64, 3)) // 65 bits → 2 words per row; 3 is ragged
}
