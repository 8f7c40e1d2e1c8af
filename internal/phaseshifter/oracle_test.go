package phaseshifter

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/benchprofile"
	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/prng"
	"repro/internal/scan"
)

// referenceFindCollision is the separation check written the direct way:
// it simulates the window symbolically on its own, clones every output
// expression into a hash map, and returns the first output whose
// expression duplicates another output's expression at any cycle, or -1.
// It is the oracle for firstCollision, which hashes a shared row set in
// place instead.
func referenceFindCollision(l *lfsr.LFSR, taps [][]int, windowCycles int) int {
	n := l.Size()
	type slot struct {
		out  int
		expr gf2.Vec
	}
	seen := make(map[uint64][]slot, windowCycles*len(taps))
	sym := lfsr.NewSymbolic(l)
	scratch := gf2.NewVec(n)
	for cyc := 0; cyc < windowCycles; cyc++ {
		for o, ts := range taps {
			scratch.Zero()
			for _, c := range ts {
				scratch.Xor(sym.Expr(c))
			}
			h := hashWords(scratch.Words())
			for _, s := range seen[h] {
				if s.out != o && s.expr.Equal(scratch) {
					return o
				}
			}
			seen[h] = append(seen[h], slot{out: o, expr: scratch.Clone()})
		}
		sym.Step()
	}
	return -1
}

// referenceSeparated is the tap search of NewSeparated driven by
// referenceFindCollision. It also returns the first draw's taps and the
// output that draw collided on (-1 if it was already separated).
func referenceSeparated(l *lfsr.LFSR, outputs, windowCycles int, variant uint64) (taps, firstDraw [][]int, firstCollision int, err error) {
	n := l.Size()
	src := prng.New(uint64(n)<<32 ^ uint64(outputs)<<16 ^ uint64(windowCycles) ^ 0x51ab ^ variant*0x9e3779b97f4a7c15)
	taps = make([][]int, outputs)
	for o := range taps {
		taps[o] = randomTaps(src, n)
	}
	firstDraw = append([][]int(nil), taps...)
	firstCollision = referenceFindCollision(l, taps, windowCycles)
	for colliding, round := firstCollision, 0; round < 64; round++ {
		if colliding < 0 {
			return taps, firstDraw, firstCollision, nil
		}
		taps[colliding] = randomTaps(src, n)
		colliding = referenceFindCollision(l, taps, windowCycles)
	}
	return nil, firstDraw, firstCollision, fmt.Errorf("reference: could not separate")
}

// referenceRows is an expression-table fill written as a standalone loop:
// one symbolic simulation, and for every cycle each output's tap XOR
// written into a cycle-major arena (word block t·m+o).
func referenceRows(l *lfsr.LFSR, taps [][]int, cycles int) []uint64 {
	n := l.Size()
	words := (n + 63) / 64
	m := len(taps)
	arena := make([]uint64, cycles*m*words)
	sym := lfsr.NewSymbolic(l)
	for cyc := 0; cyc < cycles; cyc++ {
		base := cyc * m * words
		for ch := 0; ch < m; ch++ {
			dst := gf2.VecView(n, arena[base+ch*words:base+(ch+1)*words])
			for _, cell := range taps[ch] {
				dst.Xor(sym.Expr(cell))
			}
		}
		sym.Step()
	}
	return arena
}

// TestNewSeparatedMatchesReference pins the shared-row separation check to
// the reference: identical taps (so every PRNG draw and the order of
// re-draws are unchanged) and identical rows, cycle-major, for the CI
// profiles, the paper-scale s9234 and s15850 at L = 200, and small
// registers whose first draw collides (the first colliding output must
// match as well).
func TestNewSeparatedMatchesReference(t *testing.T) {
	type tc struct {
		name             string
		n, outputs, cyc  int
		variant          uint64
		wantFirstCollide bool
	}
	var cases []tc
	for _, p := range benchprofile.All(benchprofile.ScaleCI) {
		geo, err := scan.New(p.Width, p.Chains)
		if err != nil {
			t.Fatal(err)
		}
		for _, L := range []int{8, 32} {
			for v := uint64(0); v < 2; v++ {
				cases = append(cases, tc{name: fmt.Sprintf("ci/%s/L%d/v%d", p.Name, L, v), n: p.LFSRSize, outputs: p.Chains, cyc: L * geo.Length, variant: v})
			}
		}
	}
	for _, name := range []string{"s9234", "s15850"} {
		p, err := benchprofile.ByName(name, benchprofile.ScalePaper)
		if err != nil {
			t.Fatal(err)
		}
		geo, err := scan.New(p.Width, p.Chains)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{name: "paper/" + name + "/L200", n: p.LFSRSize, outputs: p.Chains, cyc: 200 * geo.Length})
	}
	cases = append(cases,
		tc{name: "collide/n12", n: 12, outputs: 8, cyc: 100, wantFirstCollide: true},
		tc{name: "collide/n14", n: 14, outputs: 16, cyc: 300, wantFirstCollide: true})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := std(t, c.n)
			wantTaps, firstDraw, first, err := referenceSeparated(l, c.outputs, c.cyc, c.variant)
			if err != nil {
				t.Fatal(err)
			}
			if c.wantFirstCollide && first < 0 {
				t.Fatalf("first draw did not collide; the case no longer covers a re-draw")
			}
			if got := firstCollision(gf2.NewRowSet(c.n, referenceRows(l, firstDraw, c.cyc)), c.outputs); got != first {
				t.Fatalf("first draw: firstCollision = %d, reference %d", got, first)
			}
			ps, rows, err := NewSeparated(context.Background(), l, c.outputs, c.cyc, c.variant)
			if err != nil {
				t.Fatal(err)
			}
			for o := 0; o < c.outputs; o++ {
				if fmt.Sprint(ps.Taps(o)) != fmt.Sprint(wantTaps[o]) {
					t.Fatalf("output %d taps %v, reference %v", o, ps.Taps(o), wantTaps[o])
				}
			}
			want := gf2.NewRowSet(c.n, referenceRows(l, wantTaps, c.cyc))
			if rows.Count() != want.Count() {
				t.Fatalf("%d rows, reference %d", rows.Count(), want.Count())
			}
			for i := 0; i < want.Count(); i++ {
				if !rows.Row(i).Equal(want.Row(i)) {
					t.Fatalf("row %d (cycle %d, output %d) differs from reference", i, i/c.outputs, i%c.outputs)
				}
			}
		})
	}
}
