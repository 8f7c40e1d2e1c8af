package encoder

import (
	"fmt"

	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/scan"
)

// GenerateWindow expands a concrete seed into its window of L test vectors,
// exactly as the decompressor hardware would: the LFSR starts from the seed
// state and runs L·r Normal-mode clocks; at every clock each phase-shifter
// output feeds one scan chain. The returned vectors have geo.Width bits
// (padding slots are dropped).
//
// This concrete path and the symbolic Tables describe the same machine;
// TestTableMatchesGeneration pins them together, and the whole encoding
// story rests on that equality.
func GenerateWindow(l *lfsr.LFSR, ps *phaseshifter.PhaseShifter, geo scan.Geometry, seed gf2.Vec, L int) []gf2.Vec {
	out := make([]gf2.Vec, L)
	GenerateWindowInto(out, l, ps, geo, seed, L)
	return out
}

// GenerateWindowInto fills dst (length ≥ L) with the window vectors,
// allocating fresh vectors only for nil slots.
func GenerateWindowInto(dst []gf2.Vec, l *lfsr.LFSR, ps *phaseshifter.PhaseShifter, geo scan.Geometry, seed gf2.Vec, L int) {
	if seed.Len() != l.Size() {
		panic(fmt.Sprintf("encoder: seed width %d != LFSR size %d", seed.Len(), l.Size()))
	}
	state := seed.Clone()
	next := gf2.NewVec(l.Size())
	for v := 0; v < L; v++ {
		if dst[v].Len() != geo.Width {
			dst[v] = gf2.NewVec(geo.Width)
		} else {
			dst[v].Zero()
		}
		for cyc := 0; cyc < geo.Length; cyc++ {
			for ch := 0; ch < geo.Chains; ch++ {
				pos := geo.CellAtCycle(ch, cyc)
				if pos < 0 {
					continue
				}
				var b uint8
				for _, cell := range ps.Taps(ch) {
					b ^= state.Bit(cell)
				}
				dst[v].SetBit(pos, b)
			}
			l.StepInto(next, state)
			state, next = next, state
		}
	}
}
