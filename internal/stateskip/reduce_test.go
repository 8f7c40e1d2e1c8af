package stateskip

import (
	"context"
	"testing"

	"repro/internal/benchprofile"
	"repro/internal/encoder"
)

func encodeProfile(t testing.TB, name string, numCubes, L int) *encoder.Encoding {
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
	return enc
}

func TestReduceBasicInvariants(t *testing.T) {
	enc := encodeProfile(t, "s13207", 50, 20)
	red, err := Reduce(enc, DefaultOptions(5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := red.Verify(); err != nil {
		t.Fatal(err)
	}
	if red.Segs != 4 {
		t.Errorf("Segs = %d, want 4", red.Segs)
	}
	if red.TSL() > enc.TSL() {
		t.Errorf("shortened TSL %d exceeds original %d", red.TSL(), enc.TSL())
	}
	if red.TSL() <= 0 {
		t.Errorf("TSL = %d", red.TSL())
	}
	imp := red.Improvement()
	if imp < 0 || imp >= 1 {
		t.Errorf("improvement %f out of range", imp)
	}
}

// TestEveryCubeAppliedInShortenedSequence is the paper's central claim:
// the shortened schedule still applies every test cube. It regenerates the
// exact applied vector stream (normal + skip mode, bit-counter resets,
// early termination) and checks each cube matches at least one vector.
func TestEveryCubeAppliedInShortenedSequence(t *testing.T) {
	for _, cfg := range []struct {
		name string
		S, k int
		L    int
	}{
		{"s13207", 5, 8, 20},
		{"s13207", 4, 3, 20},
		{"s9234", 2, 24, 16},
		{"s15850", 10, 12, 20}, // S=10 with L=20: coarse segmentation
		{"s9234", 7, 5, 16},    // S does not divide L
	} {
		t.Run(cfg.name, func(t *testing.T) {
			enc := encodeProfile(t, cfg.name, 40, cfg.L)
			red, err := Reduce(enc, DefaultOptions(cfg.S, cfg.k))
			if err != nil {
				t.Fatal(err)
			}
			if err := red.Verify(); err != nil {
				t.Fatal(err)
			}
			applied := red.AppliedVectors()
			if len(applied) != red.TSL() {
				t.Errorf("AppliedVectors length %d != TSL %d", len(applied), red.TSL())
			}
			for ci, c := range enc.Set.Cubes {
				found := false
				for _, v := range applied {
					if c.Matches(v) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("cube %d is not applied by the shortened sequence", ci)
				}
			}
		})
	}
}

func TestKeepFirstSegment(t *testing.T) {
	enc := encodeProfile(t, "s9234", 40, 16)
	red, err := Reduce(enc, DefaultOptions(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	for si := range red.Useful {
		if !red.Useful[si][0] {
			t.Errorf("seed %d: first segment not useful despite KeepFirstSegment", si)
		}
	}
	// Without pinning, coverage must still hold.
	opt := Options{SegmentSize: 4, Speedup: 8}
	red2, err := Reduce(enc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := red2.Verify(); err != nil {
		t.Fatal(err)
	}
	if red2.TotalUseful() > red.TotalUseful() {
		t.Errorf("dropping the first-segment pin increased useful segments: %d > %d", red2.TotalUseful(), red.TotalUseful())
	}
}

func TestSpeedupShortensSequence(t *testing.T) {
	enc := encodeProfile(t, "s13207", 60, 20)
	base, err := Reduce(enc, DefaultOptions(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Reduce(enc, DefaultOptions(5, 12))
	if err != nil {
		t.Fatal(err)
	}
	if fast.TSL() >= base.TSL() {
		t.Errorf("k=12 TSL %d not shorter than k=1 TSL %d", fast.TSL(), base.TSL())
	}
	// With k=1 skip mode degenerates to normal mode: the only saving is
	// early termination after the last useful segment.
	for si := range base.Useful {
		if got := base.SeedClocks(si); got > enc.Cfg.WindowLen*enc.Cfg.Geo.Length {
			t.Errorf("seed %d: k=1 clocks %d exceed full window", si, got)
		}
	}
}

func TestGroupOrderSorted(t *testing.T) {
	enc := encodeProfile(t, "s15850", 50, 20)
	red, err := Reduce(enc, DefaultOptions(5, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(red.GroupOrder); i++ {
		if red.UsefulCount(red.GroupOrder[i-1]) > red.UsefulCount(red.GroupOrder[i]) {
			t.Fatalf("group order not ascending at %d", i)
		}
	}
	seen := make(map[int]bool)
	for _, si := range red.GroupOrder {
		if seen[si] {
			t.Fatalf("seed %d appears twice in group order", si)
		}
		seen[si] = true
	}
	if len(seen) != len(enc.Seeds) {
		t.Fatalf("group order covers %d of %d seeds", len(seen), len(enc.Seeds))
	}
}

func TestReduceDeterministic(t *testing.T) {
	enc := encodeProfile(t, "s9234", 40, 16)
	a, err := Reduce(enc, DefaultOptions(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reduce(enc, DefaultOptions(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	if a.TSL() != b.TSL() || a.TotalUseful() != b.TotalUseful() {
		t.Fatal("Reduce not deterministic")
	}
	for si := range a.Useful {
		for seg := range a.Useful[si] {
			if a.Useful[si][seg] != b.Useful[si][seg] {
				t.Fatalf("useful map differs at (%d,%d)", si, seg)
			}
		}
	}
}

func TestReduceRejectsBadOptions(t *testing.T) {
	enc := encodeProfile(t, "s9234", 10, 8)
	if _, err := Reduce(enc, DefaultOptions(0, 4)); err == nil {
		t.Error("S=0 accepted")
	}
	if _, err := Reduce(enc, DefaultOptions(9, 4)); err == nil {
		t.Error("S>L accepted")
	}
	if _, err := Reduce(enc, DefaultOptions(4, 0)); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestSegmentAccounting(t *testing.T) {
	enc := encodeProfile(t, "s13207", 30, 20)
	red, err := Reduce(enc, DefaultOptions(6, 4)) // L=20, S=6 → segs 6,6,6,2
	if err != nil {
		t.Fatal(err)
	}
	if red.Segs != 4 {
		t.Fatalf("Segs = %d, want 4", red.Segs)
	}
	if red.segLen(0) != 6 || red.segLen(3) != 2 {
		t.Errorf("segment lengths %d,%d want 6,2", red.segLen(0), red.segLen(3))
	}
	rlen := enc.Cfg.Geo.Length
	for si := range red.Useful {
		// Per-seed TSL must equal the simulated applied stream length.
		if got, want := len(red.seedApplied(si)), red.SeedTSL(si); got != want {
			t.Errorf("seed %d: simulated %d vectors, accounted %d", si, got, want)
		}
		// Runs partition the window up to the last useful segment, useful
		// runs cost exactly their states in clocks, useless runs less.
		prevEnd := -1
		for _, run := range red.Runs(si) {
			if run.FirstSeg != prevEnd+1 {
				t.Fatalf("seed %d: run starts at %d after %d", si, run.FirstSeg, prevEnd)
			}
			prevEnd = run.LastSeg
			states := 0
			for seg := run.FirstSeg; seg <= run.LastSeg; seg++ {
				if red.Useful[si][seg] != run.Useful {
					t.Fatalf("seed %d: run [%d,%d] mixes modes", si, run.FirstSeg, run.LastSeg)
				}
				states += red.segLen(seg) * rlen
			}
			if states != run.States {
				t.Errorf("seed %d: run states %d, want %d", si, run.States, states)
			}
			if run.Useful && run.Clocks != run.States {
				t.Errorf("useful run clocks %d != states %d", run.Clocks, run.States)
			}
			if !run.Useful && red.Opt.Speedup > 1 && run.Clocks >= run.States {
				t.Errorf("useless run not shortened: %d clocks for %d states", run.Clocks, run.States)
			}
		}
	}
}

func TestFortuitousEmbeddingsFound(t *testing.T) {
	// Sparse cubes should be embedded in more than one segment somewhere —
	// that is the property §3.2's set B exploits. With CI-scale windows this
	// must occur for at least one cube.
	enc := encodeProfile(t, "s38584", 60, 24) // sparsest profile
	red, err := Reduce(enc, DefaultOptions(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, embs := range red.Embeddings {
		if len(embs) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no cube has multiple embeddings; fortuitous-embedding scan looks broken")
	}
}

func TestNaiveSelectionAblation(t *testing.T) {
	// The paper's §3.2 selection (fortuitous embeddings + greedy cover)
	// must never be worse than naive assignment-based labelling, and the
	// naive variant must still apply every cube.
	enc := encodeProfile(t, "s38584", 60, 24)
	smart, err := Reduce(enc, DefaultOptions(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	naiveOpt := DefaultOptions(4, 8)
	naiveOpt.NaiveSelection = true
	naive, err := Reduce(enc, naiveOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := naive.Verify(); err != nil {
		t.Fatal(err)
	}
	if smart.TotalUseful() > naive.TotalUseful() {
		t.Errorf("smart selection uses more useful segments (%d) than naive (%d)", smart.TotalUseful(), naive.TotalUseful())
	}
	if smart.TSL() > naive.TSL() {
		t.Errorf("smart TSL %d worse than naive %d", smart.TSL(), naive.TSL())
	}
	applied := naive.AppliedVectors()
	for ci, c := range enc.Set.Cubes {
		found := false
		for _, v := range applied {
			if c.Matches(v) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("naive selection: cube %d not applied", ci)
		}
	}
}
