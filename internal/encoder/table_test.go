package encoder

import (
	"context"
	"testing"

	"repro/internal/cube"
	"repro/internal/gf2"
	"repro/internal/prng"
)

// TestDependenciesPositionInvariant pins the structural fact the whole
// encoder-robustness story rests on: the coefficient
// matrix of a cube's system at window position v is the position-0 matrix
// right-multiplied by the invertible (T^{v·r})ᵀ, so linear dependencies
// among a fixed set of slots are identical at every window position.
func TestDependenciesPositionInvariant(t *testing.T) {
	cfg := smallConfig(t, 16, 60, 4, 8)
	table := cfg.Tables
	src := prng.New(31)
	for trial := 0; trial < 30; trial++ {
		// Pick a random slot subset and a random combination over it.
		nSlots := 3 + src.Intn(5)
		slots := make([]int, 0, nSlots)
		seen := map[int]bool{}
		for len(slots) < nSlots {
			p := src.Intn(cfg.Tables.Geo().Width)
			if !seen[p] {
				seen[p] = true
				slots = append(slots, p)
			}
		}
		// The combination XOR of expressions at position 0.
		comb := func(v int) gf2.Vec {
			acc := gf2.NewVec(16)
			for _, pos := range slots {
				acc.Xor(table.Expr(v, pos))
			}
			return acc
		}
		zeroAt0 := comb(0).IsZero()
		for v := 1; v < cfg.Tables.WindowLen(); v++ {
			if comb(v).IsZero() != zeroAt0 {
				t.Fatalf("trial %d: dependency over slots %v differs between position 0 and %d", trial, slots, v)
			}
		}
	}
}

// TestBuildExprTableValidation checks NewTables' wiring validation.
func TestBuildExprTableValidation(t *testing.T) {
	cfg := smallConfig(t, 16, 50, 4, 4)
	if _, err := NewTables(context.Background(), cfg.Tables.LFSR(), cfg.Tables.PS(), cfg.Tables.Geo(), 0); err == nil {
		t.Error("L=0 accepted")
	}
	// Phase shifter with the wrong output count.
	geo2 := cfg.Tables.Geo()
	geo2.Chains = 5
	if _, err := NewTables(context.Background(), cfg.Tables.LFSR(), cfg.Tables.PS(), geo2, 4); err == nil {
		t.Error("chain-count mismatch accepted")
	}
	// Phase shifter for another register size.
	other := smallConfig(t, 20, 50, 4, 4)
	if _, err := NewTables(context.Background(), other.Tables.LFSR(), cfg.Tables.PS(), cfg.Tables.Geo(), 4); err == nil {
		t.Error("LFSR-size mismatch accepted")
	}
}

func TestExprTableMemoryBounded(t *testing.T) {
	cfg := smallConfig(t, 24, 100, 8, 10)
	table := cfg.Tables
	// cycles × chains × words × 8 bytes.
	cycles := cfg.Tables.WindowLen() * cfg.Tables.Geo().Length
	want := cycles * cfg.Tables.Geo().Chains * 1 * 8
	if got := table.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

func TestEquationsMatchCubeBits(t *testing.T) {
	cfg := smallConfig(t, 16, 40, 4, 6)
	table := cfg.Tables
	padded := cube.MustParse("1xx0xxxxxx1xxxxxxxxx0xxxxxxxxx1xxxxxxxx1")
	if padded.Width() != 40 {
		t.Fatalf("test cube width %d", padded.Width())
	}
	eqs := table.Equations(padded, 2, nil)
	if len(eqs) != padded.SpecifiedCount() {
		t.Fatalf("%d equations for %d specified bits", len(eqs), padded.SpecifiedCount())
	}
	// RHS values must be the cube's specified values in position order.
	i := 0
	for _, pos := range padded.Specified() {
		if eqs[i].RHS != uint8(padded.Get(pos)) {
			t.Errorf("equation %d RHS %d != cube bit %d", i, eqs[i].RHS, padded.Get(pos))
		}
		if !eqs[i].Coeffs.Equal(table.Expr(2, pos)) {
			t.Errorf("equation %d coefficients not the table expression", i)
		}
		i++
	}
}
