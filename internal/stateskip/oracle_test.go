package stateskip

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/benchprofile"
	"repro/internal/encoder"
	"repro/internal/gf2"
)

// serialDecompressor is the bit-serial reference decompressor the
// bit-sliced encoder.Kernel replaced: one Bit/SetBit per scan cell and one
// LFSR.StepInto (or skip-matrix product) per shift clock. cells are the
// scan chains; they keep their contents across vectors and seeds.
type serialDecompressor struct {
	tab                *encoder.Tables
	state, next, cells gf2.Vec
}

func newSerial(tab *encoder.Tables) *serialDecompressor {
	n := tab.LFSR().Size()
	return &serialDecompressor{tab: tab, state: gf2.NewVec(n), next: gf2.NewVec(n), cells: gf2.NewVec(tab.Geo().Width)}
}

// shift feeds every chain its phase-shifter bit at shift cycle cyc.
func (d *serialDecompressor) shift(cyc int) {
	geo, ps := d.tab.Geo(), d.tab.PS()
	for ch := 0; ch < geo.Chains; ch++ {
		pos := geo.CellAtCycle(ch, cyc)
		if pos < 0 {
			continue
		}
		var b uint8
		for _, c := range ps.Taps(ch) {
			b ^= d.state.Bit(c)
		}
		d.cells.SetBit(pos, b)
	}
}

func (d *serialDecompressor) step() {
	d.tab.LFSR().StepInto(d.next, d.state)
	d.state, d.next = d.next, d.state
}

// window regenerates one seed's full window in Normal mode.
func (d *serialDecompressor) window(seed gf2.Vec) []gf2.Vec {
	d.state.CopyFrom(seed)
	vecs := make([]gf2.Vec, d.tab.WindowLen())
	for v := range vecs {
		for cyc := 0; cyc < d.tab.Geo().Length; cyc++ {
			d.shift(cyc)
			d.step()
		}
		vecs[v] = d.cells.Clone()
	}
	return vecs
}

// appliedVectors regenerates the exact vector stream the shortened
// schedule applies: for every seed in group order, the vectors of segments
// up to the last useful one, with useless segments reduced to the vectors
// their skip-mode clocks still shift in. decompressor.Schedule.Run must
// reproduce it bit for bit.
func (r *Reduction) appliedVectors() []gf2.Vec {
	d := newSerial(r.Enc.Cfg.Tables)
	var out []gf2.Vec
	for _, si := range r.GroupOrder {
		out = append(out, r.seedApplied(d, si)...)
	}
	return out
}

// seedApplied simulates one seed's shortened window at clock accuracy.
func (r *Reduction) seedApplied(d *serialDecompressor, seed int) []gf2.Vec {
	rlen := r.Enc.Cfg.Tables.Geo().Length
	k := r.Opt.Speedup
	skip := r.Enc.Cfg.Tables.LFSR().SkipMatrix(uint64(k))
	d.state.CopyFrom(r.Enc.Seeds[seed].Value)
	var vecs []gf2.Vec
	fill := 0 // Bit Counter: shift clocks since the last segment boundary
	clock := func(next func()) {
		d.shift(fill % rlen)
		fill++
		if fill%rlen == 0 {
			vecs = append(vecs, d.cells.Clone())
		}
		next()
	}
	for _, run := range r.Runs(seed) {
		// The Bit Counter restarts at each mode switch so useful runs are
		// framed exactly like the original window. Any partial garbage
		// vector left by a useless run is captured once before the reset
		// (the hardware's capture-on-mode-switch).
		if fill%rlen != 0 {
			vecs = append(vecs, d.cells.Clone())
		}
		fill = 0
		normal := run.States
		if !run.Useful {
			for c := 0; c < run.States/k; c++ {
				clock(func() { d.state = skip.MulVec(d.state) })
			}
			normal = run.States % k
		}
		for c := 0; c < normal; c++ {
			clock(d.step)
		}
	}
	if fill%rlen != 0 {
		vecs = append(vecs, d.cells.Clone())
	}
	return vecs
}

// oracleIndex is the embedding index the bit-serial scan produced: every
// window regenerated seed by seed, every cube matched vector by vector.
func oracleIndex(enc *encoder.Encoding) *VecEmbeddings {
	d := newSerial(enc.Cfg.Tables)
	idx := &VecEmbeddings{PerCube: make([][]VecRef, enc.Set.Len())}
	for si, s := range enc.Seeds {
		for v, vec := range d.window(s.Value) {
			for ci, c := range enc.Set.Cubes {
				if c.Matches(vec) {
					idx.PerCube[ci] = append(idx.PerCube[ci], VecRef{Seed: si, Vec: v})
				}
			}
		}
	}
	return idx
}

// paperEncoding encodes a paper-scale profile at L = 200, the embed_paper
// workload's size.
func paperEncoding(tb testing.TB, name string) *encoder.Encoding {
	tb.Helper()
	p, err := benchprofile.ByName(name, benchprofile.ScalePaper)
	if err != nil {
		tb.Fatal(err)
	}
	enc, _, err := encoder.EncodeAutoCtx(context.Background(), p.LFSRSize, p.Width, p.Chains, 200, p.Generate(), 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

// TestScanMatchesOracleAnyWorkers pins the bit-sliced scan to the
// bit-serial one for Workers 1, 2 and 8: on every CI-scale profile, and on
// the paper-scale encodings embed_paper indexes, whose last 64-seed group
// is partial.
func TestScanMatchesOracleAnyWorkers(t *testing.T) {
	check := func(t *testing.T, enc *encoder.Encoding) {
		want := oracleIndex(enc)
		for _, workers := range []int{1, 2, 8} {
			if got := ScanEmbeddingsWorkers(enc, workers); !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: index differs from the bit-serial scan", workers)
			}
		}
	}
	for _, name := range benchprofile.Names() {
		t.Run("ci/"+name, func(t *testing.T) { check(t, encodeProfile(t, name, 0, 12)) })
	}
	for _, name := range []string{"s9234", "s15850"} {
		t.Run("paper/"+name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("paper-scale encode")
			}
			enc := paperEncoding(t, name)
			if len(enc.Seeds)%64 == 0 {
				t.Fatalf("%d seeds fill every 64-lane group; the partial group goes unchecked", len(enc.Seeds))
			}
			check(t, enc)
		})
	}
}

// BenchmarkScanEmbeddings measures the embedding scan on paper-scale
// s15850 at L = 200, the size perfbench's embed_paper workload indexes.
func BenchmarkScanEmbeddings(b *testing.B) {
	enc := paperEncoding(b, "s15850")
	for b.Loop() {
		ScanEmbeddingsWorkers(enc, 0)
	}
}
