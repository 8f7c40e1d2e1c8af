package encoder

import "fmt"

// Verify regenerates every seed's window on the concrete decompressor
// (Kernel, 64 seeds per pass) and confirms that each cube matches the
// vector at its assigned position and that every input cube was assigned
// exactly once. This is the end-to-end soundness check of the whole
// encoding pipeline: the symbolic table, solver and seed fill must agree
// with concrete LFSR generation for it to pass, so it never reads the
// table's rows.
func (e *Encoding) Verify() error {
	t := e.Cfg.Tables
	w := t.geo.Width
	kn := NewKernel(t.l, t.ps, t.geo)
	planes := make([]uint64, t.winLen*w)
	assigned := make([]int, e.Set.Len())
	for lo := 0; lo < len(e.Seeds); lo += 64 {
		group := e.Seeds[lo:min(lo+64, len(e.Seeds))]
		kn.Load(group)
		kn.Window(planes, t.winLen)
		for s, seed := range group {
			for _, a := range seed.Assignments {
				if a.Pos < 0 || a.Pos >= t.winLen {
					return fmt.Errorf("encoder: seed %d assigns cube %d to position %d outside window", lo+s, a.Cube, a.Pos)
				}
				if e.Set.Cubes[a.Cube].MatchesLanes(planes[a.Pos*w:(a.Pos+1)*w], 1<<s) == 0 {
					return fmt.Errorf("encoder: seed %d: cube %d does not match window vector %d", lo+s, a.Cube, a.Pos)
				}
				assigned[a.Cube]++
			}
		}
	}
	for ci, n := range assigned {
		if n != 1 {
			return fmt.Errorf("encoder: cube %d assigned %d times, want exactly 1", ci, n)
		}
	}
	return nil
}
