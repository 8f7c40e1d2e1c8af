package decompressor

import (
	"context"
	"testing"

	"repro/internal/benchprofile"
	"repro/internal/encoder"
	"repro/internal/stateskip"
)

func buildSchedule(t testing.TB, name string, numCubes, L, S, k int) *Schedule {
	t.Helper()
	p, err := benchprofile.ByName(name, benchprofile.ScaleCI)
	if err != nil {
		t.Fatal(err)
	}
	if numCubes > 0 {
		p.NumCubes = numCubes
	}
	set := p.Generate()
	enc, _, err := encoder.EncodeAutoCtx(context.Background(), p.LFSRSize, p.Width, p.Chains, L, set, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	red, err := stateskip.Reduce(enc, stateskip.DefaultOptions(S, k))
	if err != nil {
		t.Fatal(err)
	}
	return NewSchedule(red)
}

// TestRunMatchesAnalyticalAccounting pins the cycle-accurate simulator to
// the closed-form clock/vector accounting in stateskip.Reduction.
func TestRunMatchesAnalyticalAccounting(t *testing.T) {
	for _, tc := range []struct{ S, k int }{{5, 8}, {4, 3}, {7, 24}, {2, 5}} {
		sched := buildSchedule(t, "s13207", 40, 20, tc.S, tc.k)
		res, err := sched.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(res.Vectors), sched.Red.TSL(); got != want {
			t.Errorf("S=%d k=%d: simulator applied %d vectors, accounting says %d", tc.S, tc.k, got, want)
		}
		wantClocks := 0
		for si := range sched.Red.Useful {
			wantClocks += sched.Red.SeedClocks(si)
		}
		if res.Clocks != wantClocks {
			t.Errorf("S=%d k=%d: simulator %d clocks, accounting %d", tc.S, tc.k, res.Clocks, wantClocks)
		}
		if res.SeedsLoaded != len(sched.Red.Enc.Seeds) {
			t.Errorf("loaded %d seeds, want %d", res.SeedsLoaded, len(sched.Red.Enc.Seeds))
		}
	}
}

// TestEndToEndCoverage is the full-stack check: synthetic test set →
// encoder → reduction → architecture simulation → every cube applied.
func TestEndToEndCoverage(t *testing.T) {
	for _, name := range []string{"s9234", "s13207", "s38584"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sched := buildSchedule(t, name, 45, 16, 4, 8)
			res, err := sched.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := sched.VerifyCoverage(res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSkipClocksCounted(t *testing.T) {
	sched := buildSchedule(t, "s13207", 40, 20, 5, 8)
	res, err := sched.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SkipClocks == 0 {
		t.Error("no skip clocks recorded; useless segments not skipped")
	}
	if res.SkipClocks >= res.Clocks {
		t.Error("skip clocks exceed total clocks")
	}
}

func TestScheduleGroupsPartitionSeeds(t *testing.T) {
	sched := buildSchedule(t, "s15850", 40, 16, 4, 6)
	total := 0
	for g, pop := range sched.Groups {
		if g < 1 {
			t.Errorf("group %d exists despite first-segment pinning", g)
		}
		total += pop
	}
	if total != len(sched.Red.Enc.Seeds) {
		t.Errorf("groups cover %d seeds, want %d", total, len(sched.Red.Enc.Seeds))
	}
	// Group order must deliver seeds in ascending group index.
	prev := -1
	for _, si := range sched.SeedOrder {
		u := sched.Red.UsefulCount(si)
		if u < prev {
			t.Fatal("seed order not grouped ascending")
		}
		prev = u
	}
}

func TestCostBreakdownSane(t *testing.T) {
	sched := buildSchedule(t, "s13207", 40, 20, 5, 8)
	c := sched.Cost()
	if c.LFSR <= 0 || c.SkipCircuit <= 0 || c.PhaseShifter <= 0 || c.Counters <= 0 || c.ModeSelect <= 0 {
		t.Errorf("non-positive cost component: %+v", c)
	}
	if c.TotalGE() != c.SharedGE()+c.ModeSelect {
		t.Error("TotalGE does not decompose")
	}
	// Skip circuit grows with k (same encoding, higher speedup).
	red2, err := stateskip.Reduce(sched.Red.Enc, stateskip.DefaultOptions(5, 24))
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewSchedule(red2).Cost()
	if c2.SkipCircuit <= c.SkipCircuit {
		t.Errorf("skip circuit GE did not grow with k: k=8 %.0f vs k=24 %.0f", c.SkipCircuit, c2.SkipCircuit)
	}
}

func BenchmarkDecompressorRun(b *testing.B) {
	sched := buildSchedule(b, "s13207", 40, 20, 5, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
