// Package phaseshifter implements the XOR network between an LFSR and the
// scan chains. Adjacent LFSR cells produce shifted copies of the same bit
// sequence; feeding chains directly from cells would make neighbouring
// chains linearly dependent and cripple the seed-equation systems. A phase
// shifter drives every chain with the XOR of a small set of cells, chosen so
// the output sequences are widely separated phases of the m-sequence.
//
// The construction here (NewSeparated) taps three cells per output and
// verifies by symbolic simulation that no two outputs produce the same
// seed expression anywhere within the encoding window — the separation
// property window-based reseeding needs. That simulation (Rows) yields the
// expression of every (cycle, output) slot, which is also exactly the
// table the encoder solves against, so the verified rows are handed on.
package phaseshifter

import (
	"context"
	"fmt"

	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/prng"
)

// PhaseShifter is an immutable XOR network from n LFSR cells to m outputs.
type PhaseShifter struct {
	n    int
	taps [][]int // taps[out] = LFSR cell indices XORed into that output
}

// New builds a phase shifter with explicit taps. Every output must have at
// least one tap and all taps must be valid cell indices.
func New(n int, taps [][]int) (*PhaseShifter, error) {
	if n < 1 {
		return nil, fmt.Errorf("phaseshifter: LFSR size %d invalid", n)
	}
	if len(taps) == 0 {
		return nil, fmt.Errorf("phaseshifter: need at least one output")
	}
	cp := make([][]int, len(taps))
	for o, ts := range taps {
		if len(ts) == 0 {
			return nil, fmt.Errorf("phaseshifter: output %d has no taps", o)
		}
		seen := make(map[int]bool, len(ts))
		for _, c := range ts {
			if c < 0 || c >= n {
				return nil, fmt.Errorf("phaseshifter: output %d taps cell %d outside [0,%d)", o, c, n)
			}
			if seen[c] {
				return nil, fmt.Errorf("phaseshifter: output %d taps cell %d twice", o, c)
			}
			seen[c] = true
		}
		cp[o] = append([]int(nil), ts...)
	}
	return &PhaseShifter{n: n, taps: cp}, nil
}

// NewSeparated builds a 3-tap-per-output phase shifter whose output
// sequences are verified to have no phase overlap within windowCycles
// clocks, and returns it with the rows that verification computed: the
// expression of every (cycle, output) slot over the seed, exactly as Rows
// lays them out. The encoder builds its tables from these rows, so the
// window is simulated once per design.
//
// Each output, being an XOR of LFSR cells, produces the register's
// m-sequence at some phase (the shift-and-add property). If two outputs'
// phases come closer than the window length, they emit the *same* linear
// expression of the seed at two different (output, cycle) slots, and any
// test cube specifying opposite values at those slots becomes structurally
// unencodable. Naive tap constructions (e.g. constant-stride tap sets) are
// catastrophic here: shifting a tap set by s cells shifts its phase by
// exactly s, putting all channels within a few cycles of each other.
//
// Because computing phases outright needs discrete logarithms in GF(2^n),
// NewSeparated instead verifies separation directly: it simulates the
// register symbolically for windowCycles clocks, hashes every output
// expression, and re-randomises the taps of any output that collides with
// an earlier one. Tap choice is deterministic (seeded from n, outputs,
// windowCycles and variant), so identical configurations always yield
// identical hardware.
//
// The variant salts the tap draw. Pairwise phase separation cannot rule
// out *higher-weight* translation-invariant relations (e.g. output a XOR
// output b at equal cycles equalling output c a few cycles earlier); when
// a test set happens to specify slots on such a relation with odd parity,
// that cube is structurally unencodable under this particular shifter and
// the flow retries with the next variant — mirroring real DFT practice,
// where the phase shifter is iterated until the test set encodes. See
// encoder.EncodeAutoCtx.
//
// The symbolic simulation polls ctx as Rows does; a cancelled design
// returns an error wrapping the context error.
func NewSeparated(ctx context.Context, l *lfsr.LFSR, outputs, windowCycles int, variant uint64) (*PhaseShifter, gf2.RowSet, error) {
	n := l.Size()
	if outputs < 1 {
		return nil, gf2.RowSet{}, fmt.Errorf("phaseshifter: need at least one output, got %d", outputs)
	}
	if windowCycles < 1 {
		return nil, gf2.RowSet{}, fmt.Errorf("phaseshifter: window of %d cycles invalid", windowCycles)
	}
	src := prng.New(uint64(n)<<32 ^ uint64(outputs)<<16 ^ uint64(windowCycles) ^ 0x51ab ^ variant*0x9e3779b97f4a7c15)
	p := &PhaseShifter{n: n, taps: make([][]int, outputs)}
	for o := range p.taps {
		p.taps[o] = randomTaps(src, n)
	}
	const maxRounds = 64
	for round := 0; round < maxRounds; round++ {
		rows, err := p.Rows(ctx, l, windowCycles)
		if err != nil {
			return nil, gf2.RowSet{}, err
		}
		colliding := firstCollision(rows, outputs)
		if colliding < 0 {
			return p, rows, nil
		}
		p.taps[colliding] = randomTaps(src, n)
	}
	return nil, gf2.RowSet{}, fmt.Errorf("phaseshifter: could not separate %d outputs over %d cycles for n=%d (state space too small)", outputs, windowCycles, n)
}

// randomTaps draws three distinct cells (fewer if n < 3).
func randomTaps(src *prng.Source, n int) []int {
	want := 3
	if n < want {
		want = n
	}
	set := make(map[int]bool, want)
	out := make([]int, 0, want)
	for len(out) < want {
		c := src.Intn(n)
		if !set[c] {
			set[c] = true
			out = append(out, c)
		}
	}
	return out
}

// firstCollision walks the rows of an m-output row set in row order and
// returns the output of the first row whose expression equals an earlier
// row of a different output, or -1 if no two outputs share an expression.
// Rows are hashed in place into an open-addressed index of row numbers
// (at most half full), so the check copies no expression.
func firstCollision(rows gf2.RowSet, m int) int {
	count := rows.Count()
	size := 1
	for size < 2*count {
		size <<= 1
	}
	mask := uint64(size - 1)
	slots := make([]int32, size) // row number + 1; 0 marks an empty slot
	for i := 0; i < count; i++ {
		r := rows.Row(i)
		s := hashWords(r.Words()) & mask
		for ; slots[s] != 0; s = (s + 1) & mask {
			j := int(slots[s]) - 1
			if j%m != i%m && rows.Row(j).Equal(r) {
				return i % m
			}
		}
		slots[s] = int32(i + 1)
	}
	return -1
}

func hashWords(ws []uint64) uint64 {
	// FNV-1a over the words.
	h := uint64(0xcbf29ce484222325)
	for _, w := range ws {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= 0x100000001b3
		}
	}
	return h
}

// rowPoll is how many symbolic cycles Rows materialises between context
// polls. A cycle is m·words XOR words plus one symbolic step, so 16 cycles
// keeps the poll below measurement noise while bounding cancellation
// latency to microseconds even on the largest cores.
const rowPoll = 16

// Rows symbolically simulates l from an all-symbolic seed for cycles
// clocks and returns the expression of every phase-shifter output over the
// n seed variables, cycle-major: row t·m+o is output o at cycle t. This is
// the only place the repository turns symbolic LFSR state into output
// expressions; the encoder's tables and the separation check both read
// its rows. The loop polls ctx every rowPoll cycles, and a cancelled
// simulation returns an error wrapping the context error.
func (p *PhaseShifter) Rows(ctx context.Context, l *lfsr.LFSR, cycles int) (gf2.RowSet, error) {
	if l.Size() != p.n {
		return gf2.RowSet{}, fmt.Errorf("phaseshifter: LFSR size %d != phase shifter size %d", l.Size(), p.n)
	}
	m := len(p.taps)
	words := (p.n + 63) / 64
	arena := make([]uint64, cycles*m*words)
	sym := lfsr.NewSymbolic(l)
	for cyc := 0; cyc < cycles; cyc++ {
		if cyc%rowPoll == rowPoll-1 && ctx.Err() != nil {
			return gf2.RowSet{}, fmt.Errorf("phaseshifter: symbolic simulation stopped at cycle %d/%d: %w", cyc, cycles, ctx.Err())
		}
		base := cyc * m * words
		for o, ts := range p.taps {
			dst := gf2.VecView(p.n, arena[base+o*words:base+(o+1)*words])
			for _, c := range ts {
				dst.Xor(sym.Expr(c))
			}
		}
		sym.Step()
	}
	return gf2.NewRowSet(p.n, arena), nil
}

// Outputs returns the number of outputs m.
func (p *PhaseShifter) Outputs() int { return len(p.taps) }

// Size returns the LFSR size n the shifter was built for.
func (p *PhaseShifter) Size() int { return p.n }

// Taps returns the tap list of one output (read-only).
func (p *PhaseShifter) Taps(out int) []int { return p.taps[out] }

// Apply computes the m concrete output bits for a concrete LFSR state.
func (p *PhaseShifter) Apply(state gf2.Vec) gf2.Vec {
	if state.Len() != p.n {
		panic(fmt.Sprintf("phaseshifter: state width %d != %d", state.Len(), p.n))
	}
	out := gf2.NewVec(len(p.taps))
	for o, ts := range p.taps {
		var b uint8
		for _, c := range ts {
			b ^= state.Bit(c)
		}
		out.SetBit(o, b)
	}
	return out
}

// ApplyInto is Apply without allocation; dst must have m bits.
func (p *PhaseShifter) ApplyInto(dst, state gf2.Vec) {
	for o, ts := range p.taps {
		var b uint8
		for _, c := range ts {
			b ^= state.Bit(c)
		}
		dst.SetBit(o, b)
	}
}

// XORGateCount returns the number of 2-input XOR gates a direct
// implementation needs: taps-1 per output.
func (p *PhaseShifter) XORGateCount() int {
	total := 0
	for _, ts := range p.taps {
		total += len(ts) - 1
	}
	return total
}
