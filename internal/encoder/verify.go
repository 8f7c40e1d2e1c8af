package encoder

import (
	"fmt"

	"repro/internal/gf2"
)

// Windows expands every seed into its L-vector window. The result is
// indexed [seed][windowPos]; it is the exact stimulus stream the CUT sees
// when every window is generated in full in Normal mode.
func (e *Encoding) Windows() [][]gf2.Vec {
	t := e.Cfg.Tables
	out := make([][]gf2.Vec, len(e.Seeds))
	for i, s := range e.Seeds {
		out[i] = GenerateWindow(t.l, t.ps, t.geo, s.Value, t.winLen)
	}
	return out
}

// Verify regenerates every seed's window and confirms that each cube
// matches the vector at its assigned position and that every input cube was
// assigned exactly once. This is the end-to-end soundness check of the
// whole encoding pipeline (symbolic table, solver, seed fill, and concrete
// LFSR generation must all agree for it to pass).
func (e *Encoding) Verify() error {
	t := e.Cfg.Tables
	assigned := make([]int, e.Set.Len())
	for si, s := range e.Seeds {
		window := GenerateWindow(t.l, t.ps, t.geo, s.Value, t.winLen)
		for _, a := range s.Assignments {
			if a.Pos < 0 || a.Pos >= t.winLen {
				return fmt.Errorf("encoder: seed %d assigns cube %d to position %d outside window", si, a.Cube, a.Pos)
			}
			if !e.Set.Cubes[a.Cube].Matches(window[a.Pos]) {
				return fmt.Errorf("encoder: seed %d: cube %d does not match window vector %d", si, a.Cube, a.Pos)
			}
			assigned[a.Cube]++
		}
	}
	for ci, n := range assigned {
		if n != 1 {
			return fmt.Errorf("encoder: cube %d assigned %d times, want exactly 1", ci, n)
		}
	}
	return nil
}
