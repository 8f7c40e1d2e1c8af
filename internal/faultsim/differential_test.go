package faultsim

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/netlist"
	"repro/internal/prng"
)

// c17 builds the ISCAS'85 c17 benchmark: 5 inputs, 6 NAND gates, 2 outputs,
// with reconvergent fan-out stems — the smallest standard circuit with
// non-trivial fault-masking structure.
func c17(t testing.TB) *netlist.Netlist {
	t.Helper()
	n := netlist.New()
	for _, in := range []string{"G1", "G2", "G3", "G6", "G7"} {
		if _, err := n.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	gates := []struct {
		name string
		a, b string
	}{
		{"G10", "G1", "G3"},
		{"G11", "G3", "G6"},
		{"G16", "G2", "G11"},
		{"G19", "G11", "G7"},
		{"G22", "G10", "G16"},
		{"G23", "G16", "G19"},
	}
	for _, g := range gates {
		if _, err := n.AddGate(g.name, netlist.Nand, g.a, g.b); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range []string{"G22", "G23"} {
		if err := n.MarkOutput(o); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func randomPatterns(src *prng.Source, count, width int) [][]uint8 {
	patterns := make([][]uint8, count)
	for i := range patterns {
		p := make([]uint8, width)
		for j := range p {
			p[j] = src.Bit()
		}
		patterns[i] = p
	}
	return patterns
}

// fullEval is the full-circuit (non-event-driven) reference for
// DetectLanes. It evaluates the whole circuit from the simulator's input
// lanes into private arenas — fault-free once when built, then once per
// fault with the fault injected — and XORs the primary outputs in every
// loaded lane. It shares no evaluation code or scratch with the
// event-driven engine and leaves the simulator untouched; build a new one
// after loading new patterns.
type fullEval struct {
	s         *Simulator
	good, bad []uint64
	planes    [][]uint64
}

func newFullEval(s *Simulator) *fullEval {
	r := &fullEval{s: s, good: make([]uint64, len(s.good)), bad: make([]uint64, len(s.good))}
	r.eval(r.good, nil)
	return r
}

// eval evaluates every gate in topological order into dst, with *f
// injected when f is non-nil.
func (r *fullEval) eval(dst []uint64, f *Fault) {
	s, w := r.s, r.s.w
	for _, gi := range s.topo.order {
		g := &s.u.Net.Gates[gi]
		out := dst[gi*w : gi*w+w]
		if g.Type == netlist.Input {
			copy(out, s.good[gi*w:gi*w+w]) // the pattern lanes
		} else {
			r.planes = r.planes[:0]
			for pin, fi := range g.Fanin {
				p := dst[fi*w : fi*w+w]
				if f != nil && gi == f.Gate && pin == f.Pin {
					p = s.stuckPlane(f.Stuck)
				}
				r.planes = append(r.planes, p)
			}
			g.Type.EvalWords(out, r.planes)
		}
		if f != nil && gi == f.Gate && f.Pin == -1 {
			copy(out, s.stuckPlane(f.Stuck))
		}
	}
}

// detectLanes returns fault f's per-lane-word detect masks in a fresh
// slice.
func (r *fullEval) detectLanes(f Fault) []uint64 {
	r.eval(r.bad, &f)
	w := r.s.w
	diff := make([]uint64, w)
	for _, o := range r.s.u.Net.Outputs {
		for k := range diff {
			diff[k] |= (r.good[o*w+k] ^ r.bad[o*w+k]) & r.s.loaded[k]
		}
	}
	return diff
}

// TestEventDrivenMatchesFullEval asserts that the event-driven DetectLanes
// returns exactly the masks of the full-circuit reference, and DetectAny
// their disjunction, for every fault of c17 and of randomized circuits at
// lane widths 1, 2, 8 and 64, across full and partially loaded batches.
func TestEventDrivenMatchesFullEval(t *testing.T) {
	circuits := map[string]*netlist.Netlist{"c17": c17(t)}
	for _, seed := range []uint64{7, 21, 1999} {
		nl, err := netlist.Random(netlist.RandomConfig{Inputs: 24, Outputs: 8, Gates: 150, MaxFan: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		circuits[fmt.Sprintf("random-%d", seed)] = nl
	}
	for name, nl := range circuits {
		t.Run(name, func(t *testing.T) {
			u := NewUniverse(nl)
			for _, w := range []int{1, 2, 8, 64} {
				sim, err := NewSimulator(u, w)
				if err != nil {
					t.Fatal(err)
				}
				src := prng.New(42)
				// A full batch, then one whose last lane word is partial.
				for batch := 0; batch < 2; batch++ {
					count := sim.Capacity() - 13*batch
					if err := sim.LoadPatterns(randomPatterns(src, count, len(nl.Inputs))); err != nil {
						t.Fatal(err)
					}
					ref := newFullEval(sim)
					for _, f := range u.Faults {
						want := ref.detectLanes(f)
						if got := sim.DetectLanes(f); !slices.Equal(got, want) {
							t.Fatalf("w=%d batch %d fault %v: event-driven masks %064b, full-eval masks %064b", w, batch, f, got, want)
						}
						// The early-exit boolean must agree with the full
						// masks; interleaving it here also checks the two
						// share the simulator's epoch state cleanly.
						if any := sim.DetectAny(f); any != anyNonzero(want) {
							t.Fatalf("w=%d batch %d fault %v: DetectAny %v, masks %064b", w, batch, f, any, want)
						}
					}
				}
			}
		})
	}
}

// TestCoverageWorkersBitIdentical asserts that the parallel coverage run
// returns exactly the serial detected slice — not just the same coverage
// fraction — on c17 and randomized circuits. Run it with -race to check the
// sharding.
func TestCoverageWorkersBitIdentical(t *testing.T) {
	circuits := map[string]*netlist.Netlist{"c17": c17(t)}
	for _, seed := range []uint64{3, 11} {
		nl, err := netlist.Random(netlist.RandomConfig{Inputs: 32, Outputs: 12, Gates: 300, MaxFan: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		circuits[fmt.Sprintf("random-%d", seed)] = nl
	}
	for name, nl := range circuits {
		t.Run(name, func(t *testing.T) {
			u := NewUniverse(nl)
			patterns := randomPatterns(prng.New(5), 150, len(nl.Inputs)) // 3 batches, last partial
			serial, serialCov, err := CoverageCtx(context.Background(), u, patterns, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8, 0} {
				par, parCov, err := CoverageCtx(context.Background(), u, patterns, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if parCov != serialCov {
					t.Fatalf("workers=%d: coverage %v != serial %v", workers, parCov, serialCov)
				}
				for fi := range serial {
					if par[fi] != serial[fi] {
						t.Fatalf("workers=%d fault %v: detected=%v, serial says %v", workers, u.Faults[fi], par[fi], serial[fi])
					}
				}
			}
		})
	}
}

// TestDetectAllMatchesSerialDrop exercises the RunAll drop-loop primitive:
// the chunked pool sweep over a shared done slice must mark exactly the
// faults, and report the same count, as a plain serial DetectAny drop loop
// — for the universe's own list and for a reordered subset of it (sweeps
// index detected by list position, not by universe position), starting
// from a partially pre-marked done slice, at several pool sizes. Run with
// -race to check the chunk claiming.
func TestDetectAllMatchesSerialDrop(t *testing.T) {
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 20, Outputs: 8, Gates: 200, MaxFan: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(nl)
	if len(u.Faults) <= 2*sweepChunk {
		t.Fatalf("%d faults: too few to span several sweep chunks", len(u.Faults))
	}
	patterns := randomPatterns(prng.New(9), 8, len(nl.Inputs))
	var subset []Fault // every third fault dropped, the rest reversed
	for i := len(u.Faults) - 1; i >= 0; i-- {
		if i%3 != 0 {
			subset = append(subset, u.Faults[i])
		}
	}
	premarked := func(n int) []bool {
		done := make([]bool, n)
		for i := 0; i < n; i += 5 {
			done[i] = true
		}
		return done
	}
	for name, faults := range map[string][]Fault{"universe": u.Faults, "reordered-subset": subset} {
		ref, err := NewSimulator(u, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, wantN := premarked(len(faults)), 0
		for _, p := range patterns {
			if err := ref.LoadPatterns([][]uint8{p}); err != nil {
				t.Fatal(err)
			}
			for fi, f := range faults {
				if !want[fi] && ref.DetectAny(f) {
					want[fi] = true
					wantN++
				}
			}
		}
		for _, workers := range []int{1, 2, 5} {
			sims, err := NewSimulatorPool(u, workers, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, gotN := premarked(len(faults)), 0
			for _, p := range patterns {
				if err := sims[0].LoadPatterns([][]uint8{p}); err != nil {
					t.Fatal(err)
				}
				for _, s := range sims[1:] {
					s.AdoptPatterns(sims[0])
				}
				n, err := DetectAllCtx(context.Background(), sims, faults, got)
				if err != nil {
					t.Fatal(err)
				}
				gotN += n
			}
			if gotN != wantN {
				t.Fatalf("%s workers=%d: %d detections, serial drop %d", name, workers, gotN, wantN)
			}
			for fi := range want {
				if got[fi] != want[fi] {
					t.Fatalf("%s workers=%d fault %v: done=%v, serial drop says %v", name, workers, faults[fi], got[fi], want[fi])
				}
			}
		}
	}
}
