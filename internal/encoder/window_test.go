package encoder

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/benchprofile"
	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/prng"
	"repro/internal/scan"
)

// generateWindow is the bit-serial reference decompressor: it expands one
// concrete seed into its window of L test vectors, one Bit/SetBit per scan
// cell and one LFSR.StepInto per shift clock. The register starts from the
// seed and runs L·r Normal-mode clocks; at every clock each phase-shifter
// output feeds one scan chain. The kernel must reproduce it bit for bit.
func generateWindow(l *lfsr.LFSR, ps *phaseshifter.PhaseShifter, geo scan.Geometry, seed gf2.Vec, L int) []gf2.Vec {
	state := seed.Clone()
	next := gf2.NewVec(l.Size())
	out := make([]gf2.Vec, L)
	for v := range out {
		out[v] = gf2.NewVec(geo.Width)
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
				out[v].SetBit(pos, b)
			}
			l.StepInto(next, state)
			state, next = next, state
		}
	}
	return out
}

func randomSeeds(src *prng.Source, count, n int) []Seed {
	seeds := make([]Seed, count)
	for i := range seeds {
		seeds[i].Value = gf2.NewVec(n)
		for j := 0; j < n; j++ {
			seeds[i].Value.SetBit(j, src.Bit())
		}
	}
	return seeds
}

// TestKernelMatchesSerialOracle is the kernel's differential test against
// the bit-serial decompressor: both register forms, a register wider than
// one word (s38417's n = 85), seed counts that leave the last 64-lane
// group partial, geometries with padding cells, L = 1, and State Skip
// clocks checked against T^k applied to each seed.
func TestKernelMatchesSerialOracle(t *testing.T) {
	for _, tc := range []struct {
		form                lfsr.Form
		n, width, chains, L int
		seeds, k            int
	}{
		{lfsr.Fibonacci, 16, 50, 4, 5, 1, 3},    // 50 cells on 4×13: two padding slots
		{lfsr.Galois, 18, 45, 6, 4, 63, 7},      // 45 cells on 6×8
		{lfsr.Fibonacci, 85, 130, 8, 3, 64, 24}, // 85 cells: two state words per seed bit
		{lfsr.Galois, 85, 61, 8, 2, 65, 5},
		{lfsr.Galois, 24, 61, 8, 1, 130, 12}, // L = 1: classical reseeding
		{lfsr.Fibonacci, 20, 37, 4, 1, 64, 1},
	} {
		t.Run(fmt.Sprintf("%v/n=%d/seeds=%d/L=%d", tc.form, tc.n, tc.seeds, tc.L), func(t *testing.T) {
			l, err := lfsr.NewStandard(tc.form, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			geo, err := scan.New(tc.width, tc.chains)
			if err != nil {
				t.Fatal(err)
			}
			ps, _, err := phaseshifter.NewSeparated(context.Background(), l, tc.chains, tc.L*geo.Length, 0)
			if err != nil {
				t.Fatal(err)
			}
			seeds := randomSeeds(prng.New(uint64(tc.n*1000+tc.seeds)), tc.seeds, tc.n)
			skip := l.SkipMatrix(uint64(tc.k))
			kn := NewKernel(l, ps, geo)
			kn.SetSpeedup(tc.k)
			planes := make([]uint64, tc.L*geo.Width)
			for lo := 0; lo < len(seeds); lo += 64 {
				group := seeds[lo:min(lo+64, len(seeds))]
				for _, skipped := range []bool{false, true} {
					kn.Load(group)
					if want := uint64(1)<<len(group) - 1; len(group) < 64 && kn.Lanes() != want {
						t.Fatalf("Lanes() = %#x, want %#x", kn.Lanes(), want)
					}
					if skipped {
						kn.Skip()
					}
					kn.Window(planes, tc.L)
					for s, seed := range group {
						start := seed.Value
						if skipped {
							start = skip.MulVec(start)
						}
						want := generateWindow(l, ps, geo, start, tc.L)
						for v := range want {
							got := LaneVec(planes[v*geo.Width:(v+1)*geo.Width], s)
							if !got.Equal(want[v]) {
								t.Fatalf("seed %d (skip %v) vector %d:\nkernel %v\noracle %v", lo+s, skipped, v, got, want[v])
							}
						}
					}
				}
			}
		})
	}
}

// TestKernelWindowOverwritesPlanes checks that Window needs no cleared
// buffer: regenerating into planes full of garbage gives the fresh result,
// so Verify and the embedding scan reuse one buffer per pass.
func TestKernelWindowOverwritesPlanes(t *testing.T) {
	cfg := smallConfig(t, 16, 50, 4, 5)
	tab := cfg.Tables
	seeds := randomSeeds(prng.New(12), 3, 16)
	kn := NewKernel(tab.LFSR(), tab.PS(), tab.Geo())
	fresh := make([]uint64, 5*tab.Geo().Width)
	kn.Load(seeds)
	kn.Window(fresh, 5)
	reused := make([]uint64, len(fresh))
	for i := range reused {
		reused[i] = ^uint64(0)
	}
	kn.Load(seeds)
	kn.Window(reused, 5)
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("plane word %d differs after buffer reuse: %#x != %#x", i, reused[i], fresh[i])
		}
	}
}

// TestVerifyCatchesWrongSeed flips one seed bit of a valid encoding; the
// concrete simulation must notice that its cubes no longer match.
func TestVerifyCatchesWrongSeed(t *testing.T) {
	set := genSet(t, "s13207", 40)
	cfg := smallConfig(t, 16, set.Width, 8, 12)
	enc, err := EncodeCtx(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Verify(); err != nil {
		t.Fatal(err)
	}
	enc.Seeds[len(enc.Seeds)-1].Value.FlipBit(3)
	if err := enc.Verify(); err == nil {
		t.Fatal("Verify accepted a seed with a flipped bit")
	}
}

// BenchmarkVerify measures Encoding.Verify on paper-scale s15850 at
// L = 200, the size perfbench's embed_paper workload checks.
func BenchmarkVerify(b *testing.B) {
	p, err := benchprofile.ByName("s15850", benchprofile.ScalePaper)
	if err != nil {
		b.Fatal(err)
	}
	enc, _, err := EncodeAutoCtx(context.Background(), p.LFSRSize, p.Width, p.Chains, 200, p.Generate(), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if err := enc.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}
