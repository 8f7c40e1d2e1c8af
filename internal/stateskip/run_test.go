package stateskip_test

import (
	"context"
	"testing"

	"repro/internal/benchprofile"
	"repro/internal/decompressor"
	"repro/internal/encoder"
	"repro/internal/stateskip"
)

func reduceProfile(t *testing.T, name string, L int, opt stateskip.Options) *stateskip.Reduction {
	t.Helper()
	p, err := benchprofile.ByName(name, benchprofile.ScaleCI)
	if err != nil {
		t.Fatal(err)
	}
	p.NumCubes = 40
	enc, _, err := encoder.EncodeAutoCtx(context.Background(), p.LFSRSize, p.Width, p.Chains, L, p.Generate(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	red, err := stateskip.Reduce(enc, opt)
	if err != nil {
		t.Fatal(err)
	}
	return red
}

// TestRunMatchesAppliedVectorsBitForBit pins the clock-accurate schedule
// simulator, which clocks the bit-sliced kernel, to the bit-serial replay
// of the shortened sequence: every applied vector, garbage vectors of
// useless runs included, is identical.
func TestRunMatchesAppliedVectorsBitForBit(t *testing.T) {
	t.Run("S does not divide L", func(t *testing.T) {
		red := reduceProfile(t, "s9234", 16, stateskip.DefaultOptions(7, 5))
		checkRunMatchesReplay(t, red)
	})
	t.Run("k above a useless run's states", func(t *testing.T) {
		// r = 12 on this profile, so a one-segment useless run spans 12
		// states: k = 16 traverses it in Normal clocks only.
		red := reduceProfile(t, "s9234", 16, stateskip.DefaultOptions(1, 16))
		short := false
		for si := range red.Useful {
			for _, run := range red.Runs(si) {
				short = short || (!run.Useful && run.States < red.Opt.Speedup)
			}
		}
		if !short {
			t.Fatal("no useless run shorter than k; the case goes unchecked")
		}
		checkRunMatchesReplay(t, red)
	})
	t.Run("no first-segment pin", func(t *testing.T) {
		red := reduceProfile(t, "s9234", 16, stateskip.Options{SegmentSize: 4, Speedup: 8})
		// Force the two cases the pin rules out: one seed without a useful
		// segment, and one whose window opens with a useless run. With
		// r = 12 and k = 8, a 4-vector segment takes 6 skip clocks, half a
		// vector, so that run's garbage vector keeps cells of the previous
		// seed.
		zero, late := red.GroupOrder[1], -1
		for _, si := range red.GroupOrder[2:] {
			if red.Useful[si][0] && red.Useful[si][1] {
				late = si
			}
		}
		if late < 0 {
			t.Fatal("no seed with its first two segments useful")
		}
		for seg := range red.Useful[zero] {
			red.Useful[zero][seg] = false
		}
		red.Useful[late][0] = false
		if first := red.Runs(late)[0]; first.Clocks%12 == 0 {
			t.Fatalf("opening useless run takes %d clocks, a whole number of vectors", first.Clocks)
		}
		checkRunMatchesReplay(t, red)
	})
}

func checkRunMatchesReplay(t *testing.T, red *stateskip.Reduction) {
	t.Helper()
	res, err := decompressor.NewSchedule(red).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := stateskip.AppliedVectors(red)
	if len(res.Vectors) != len(want) {
		t.Fatalf("Run applied %d vectors, replay %d", len(res.Vectors), len(want))
	}
	for i := range want {
		if !res.Vectors[i].Equal(want[i]) {
			t.Fatalf("vector %d:\nrun    %v\nreplay %v", i, res.Vectors[i], want[i])
		}
	}
}
