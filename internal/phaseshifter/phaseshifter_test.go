package phaseshifter

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/prng"
)

func std(t testing.TB, n int) *lfsr.LFSR {
	t.Helper()
	l, err := lfsr.NewStandard(lfsr.Fibonacci, n)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, [][]int{{0}}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := New(4, nil); err == nil {
		t.Error("no outputs accepted")
	}
	if _, err := New(4, [][]int{{}}); err == nil {
		t.Error("empty tap set accepted")
	}
	if _, err := New(4, [][]int{{4}}); err == nil {
		t.Error("out-of-range tap accepted")
	}
	if _, err := New(4, [][]int{{1, 1}}); err == nil {
		t.Error("duplicate tap accepted")
	}
	ps, err := New(4, [][]int{{0, 2}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Outputs() != 2 || ps.Size() != 4 {
		t.Error("dimensions wrong")
	}
	if ps.XORGateCount() != 1 {
		t.Errorf("XOR count = %d", ps.XORGateCount())
	}
}

func TestApplyMatchesTaps(t *testing.T) {
	ps, _ := New(8, [][]int{{0, 3, 5}, {1}, {2, 7}})
	src := prng.New(4)
	for trial := 0; trial < 50; trial++ {
		state := gf2.NewVec(8)
		for i := 0; i < 8; i++ {
			state.SetBit(i, src.Bit())
		}
		out := ps.Apply(state)
		if out.Bit(0) != state.Bit(0)^state.Bit(3)^state.Bit(5) {
			t.Fatal("output 0 wrong")
		}
		if out.Bit(1) != state.Bit(1) {
			t.Fatal("output 1 wrong")
		}
		if out.Bit(2) != state.Bit(2)^state.Bit(7) {
			t.Fatal("output 2 wrong")
		}
		dst := gf2.NewVec(3)
		ps.ApplyInto(dst, state)
		if !dst.Equal(out) {
			t.Fatal("ApplyInto disagrees with Apply")
		}
	}
}

// TestSeparationNoDuplicateExpressions is the core guarantee: within the
// verified window, no two outputs ever produce the same linear expression
// of the seed, so no test cube can be structurally unencodable due to a
// two-slot conflict. The rows NewSeparated returns must also be the ones
// Rows computes for the finished shifter.
func TestSeparationNoDuplicateExpressions(t *testing.T) {
	l := std(t, 20)
	window := 200
	ps, rows, err := NewSeparated(context.Background(), l, 6, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ps.Rows(context.Background(), l, window)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Count() != window*ps.Outputs() || again.Count() != rows.Count() {
		t.Fatalf("row counts %d and %d, want %d", rows.Count(), again.Count(), window*ps.Outputs())
	}
	seen := make(map[string][2]int)
	for i := 0; i < rows.Count(); i++ {
		cyc, o := i/ps.Outputs(), i%ps.Outputs()
		if !rows.Row(i).Equal(again.Row(i)) {
			t.Fatalf("row %d differs between NewSeparated and Rows", i)
		}
		key := rows.Row(i).String()
		if prev, dup := seen[key]; dup && prev[0] != o {
			t.Fatalf("outputs %d and %d collide (cycles %d and %d)", prev[0], o, prev[1], cyc)
		}
		if _, dup := seen[key]; !dup {
			seen[key] = [2]int{o, cyc}
		}
	}
}

// TestRowsCancelled stops the symbolic simulation with a fired context.
func TestRowsCancelled(t *testing.T) {
	l := std(t, 20)
	ps, err := New(20, [][]int{{0, 5, 11}, {1, 7, 13}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ps.Rows(ctx, l, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("Rows(cancelled) err = %v, want context.Canceled", err)
	}
	if _, _, err := NewSeparated(ctx, l, 2, 100, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewSeparated(cancelled) err = %v, want context.Canceled", err)
	}
	if _, err := ps.Rows(context.Background(), std(t, 16), 10); err == nil {
		t.Error("LFSR of the wrong size accepted")
	}
}

func TestSeparatedDeterministicAndVariants(t *testing.T) {
	l := std(t, 24)
	a, _, err := NewSeparated(context.Background(), l, 8, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := NewSeparated(context.Background(), l, 8, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < 8; o++ {
		ta, tb := a.Taps(o), b.Taps(o)
		if len(ta) != len(tb) {
			t.Fatal("not deterministic")
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatal("not deterministic")
			}
		}
	}
	v1, _, err := NewSeparated(context.Background(), l, 8, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	different := false
	for o := 0; o < 8 && !different; o++ {
		ta, tv := a.Taps(o), v1.Taps(o)
		for i := range ta {
			if i < len(tv) && ta[i] != tv[i] {
				different = true
				break
			}
		}
	}
	if !different {
		t.Error("variant 1 identical to variant 0")
	}
}

func TestSeparatedImpossibleFails(t *testing.T) {
	// 2^8-1 = 255 states cannot hold 8 channels × 64 cycles = 512 distinct
	// phases.
	l := std(t, 8)
	if _, _, err := NewSeparated(context.Background(), l, 8, 64, 0); err == nil {
		t.Error("impossible separation accepted")
	}
}

func TestSeparatedRejectsBadArgs(t *testing.T) {
	l := std(t, 16)
	if _, _, err := NewSeparated(context.Background(), l, 0, 10, 0); err == nil {
		t.Error("0 outputs accepted")
	}
	if _, _, err := NewSeparated(context.Background(), l, 4, 0, 0); err == nil {
		t.Error("0 window accepted")
	}
}
