package encoder

import (
	"fmt"

	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/scan"
)

// Kernel is the concrete decompressor — LFSR, phase shifter and scan
// chains — stepping up to 64 seeds in lockstep. The state is bit-sliced:
// word j holds cell j of every loaded seed, bit s being lane s, so a Normal
// clock, a State Skip clock and a phase-shifter output are each a few word
// XORs for all lanes (faultsim's lane trick). A plane is the scan cells:
// Width words, word p holding cube position p of every lane.
//
// The XOR lists come from the LFSR's transition and skip matrices and the
// phase shifter's taps, never from the Tables rows, so the kernel checks
// the symbolic table rather than repeating it (TestTableMatchesGeneration
// pins the two). A Kernel holds its lanes' state: one per goroutine.
type Kernel struct {
	l     *lfsr.LFSR
	geo   scan.Geometry
	step  [][]int // Normal clock: cell i takes the XOR of cells step[i]
	skip  [][]int // State Skip clock (T^k), set by SetSpeedup
	taps  [][]int // chain ch is fed the XOR of cells taps[ch]
	slots []int   // slots[cyc·Chains+ch]: position chain ch fills at shift cycle cyc, -1 = padding

	state, next []uint64
	lanes       uint64 // mask of the loaded lanes
}

// NewKernel builds the kernel of a decompressor wired as NewTables checks.
func NewKernel(l *lfsr.LFSR, ps *phaseshifter.PhaseShifter, geo scan.Geometry) *Kernel {
	kn := &Kernel{
		l:     l,
		geo:   geo,
		step:  xorLists(l.Transition()),
		taps:  make([][]int, geo.Chains),
		slots: make([]int, geo.Length*geo.Chains),
		state: make([]uint64, l.Size()),
		next:  make([]uint64, l.Size()),
	}
	for ch := range kn.taps {
		kn.taps[ch] = ps.Taps(ch)
	}
	for cyc := 0; cyc < geo.Length; cyc++ {
		for ch := 0; ch < geo.Chains; ch++ {
			kn.slots[cyc*geo.Chains+ch] = geo.CellAtCycle(ch, cyc)
		}
	}
	return kn
}

// xorLists turns a linear next-state matrix into, per output cell, the
// input cells it XORs.
func xorLists(m gf2.Mat) [][]int {
	out := make([][]int, m.Rows())
	for i := range out {
		out[i] = m.Row(i).Support()
	}
	return out
}

// SetSpeedup selects k, the number of states one Skip clock advances.
func (kn *Kernel) SetSpeedup(k int) { kn.skip = xorLists(kn.l.SkipMatrix(uint64(k))) }

// Load puts seeds[s].Value into lane s of the register, at most 64 seeds;
// every other lane is cleared.
func (kn *Kernel) Load(seeds []Seed) {
	if len(seeds) > 64 {
		panic(fmt.Sprintf("encoder: kernel loads at most 64 seeds, got %d", len(seeds)))
	}
	clear(kn.state)
	for s, seed := range seeds {
		for j := seed.Value.FirstSet(); j >= 0; j = seed.Value.NextSet(j + 1) {
			kn.state[j] |= 1 << s
		}
	}
	kn.lanes = ^uint64(0) >> (64 - len(seeds))
}

// Lanes returns the mask of the loaded lanes.
func (kn *Kernel) Lanes() uint64 { return kn.lanes }

// Shift writes the phase-shifter output of the current state into plane:
// at shift cycle cyc of a vector, every chain's bit lands on the cube
// position the chain fills at that cycle (padding slots are dropped).
func (kn *Kernel) Shift(plane []uint64, cyc int) {
	m := kn.geo.Chains
	for ch, pos := range kn.slots[cyc*m : (cyc+1)*m] {
		if pos < 0 {
			continue
		}
		var w uint64
		for _, c := range kn.taps[ch] {
			w ^= kn.state[c]
		}
		plane[pos] = w
	}
}

// Step advances every lane by one Normal-mode clock (T).
func (kn *Kernel) Step() { kn.apply(kn.step) }

// Skip advances every lane by one State Skip clock (T^k of SetSpeedup).
func (kn *Kernel) Skip() { kn.apply(kn.skip) }

func (kn *Kernel) apply(net [][]int) {
	for i, in := range net {
		var w uint64
		for _, j := range in {
			w ^= kn.state[j]
		}
		kn.next[i] = w
	}
	kn.state, kn.next = kn.next, kn.state
}

// Window runs L vectors of Normal-mode clocks from the loaded state and
// writes window vector v of every lane to the plane
// planes[v·Width : (v+1)·Width].
func (kn *Kernel) Window(planes []uint64, L int) {
	w := kn.geo.Width
	for v := 0; v < L; v++ {
		plane := planes[v*w : (v+1)*w]
		for cyc := 0; cyc < kn.geo.Length; cyc++ {
			kn.Shift(plane, cyc)
			kn.Step()
		}
	}
}

// LaneVec returns lane s of a plane as a vector of len(plane) bits.
func LaneVec(plane []uint64, s int) gf2.Vec {
	v := gf2.NewVec(len(plane))
	words := v.Words()
	for p, w := range plane {
		words[p/64] |= (w >> s & 1) << (p % 64)
	}
	return v
}
