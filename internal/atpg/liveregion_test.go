package atpg

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// pinnedRun is one recorded RunAllCtx outcome: the counters plus a SHA-256
// over the cubes and fault-drop patterns, in commit order.
type pinnedRun struct {
	detected, untestable, aborted, backtracks int
	digest                                    string
}

// resultDigest hashes a Result's cubes and patterns in commit order.
func resultDigest(r *Result) string {
	h := sha256.New()
	for _, c := range r.Cubes.Cubes {
		fmt.Fprintln(h, c.String())
	}
	for _, p := range r.Patterns {
		h.Write(p)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunAllPinnedDeadLogic pins RunAllCtx on seeded cores whose random
// wiring leaves many gates without a path to any primary output. The
// expected counters and digests were recorded with the implication kernel
// that evaluated every gate, so they prove the live-region kernel changes
// nothing — across both strategies, two backtrack limits and two worker
// counts.
func TestRunAllPinnedDeadLogic(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned cross-version run takes seconds")
	}
	cores := []netlist.RandomConfig{
		{Inputs: 400, Outputs: 160, Gates: 800, MaxFan: 3, Seed: 2009},
		{Inputs: 64, Outputs: 32, Gates: 300, MaxFan: 4, Seed: 77},
	}
	// Recorded with the whole-circuit implication kernel; Workers 1 and 2
	// must both reproduce them.
	want := map[string]pinnedRun{
		"seed2009/scoap/bt20":  {3795, 756, 711, 18671, "dafdc91b12115fb057cf55d51abc33302789cd757715cab20291bef0ff62f1a1"},
		"seed2009/scoap/bt200": {3803, 984, 475, 115013, "37b4ed05dabd491326178a13ecd5663e6a3d1d26262e1f9da2c9e8844e5f5dae"},
		"seed2009/multi/bt20":  {3808, 882, 572, 14847, "86736a2c89d0c0748611fa0bb80aff46a09fff2ff30b14dc3db0e2828d97e5d6"},
		"seed2009/multi/bt200": {3811, 1069, 382, 94700, "fc527c903827ca0e27c2a771bb1b722dd8ab5c7b8ea7864e7c42047f8dc6f938"},
		"seed77/scoap/bt20":    {976, 524, 758, 19237, "c46f6e4b95aca6254766f51866e50abb2a54ade477acd7711376d6f9addb0898"},
		"seed77/scoap/bt200":   {994, 790, 474, 118203, "72a1b6b901f4acc0ff2926be05bd30472b4c8d5f9005778a00c91ee15326c2c1"},
		"seed77/multi/bt20":    {991, 781, 486, 12349, "4776875d97028abce01695c5c49e8671295ed3a9b70742ee3419d78b65ad9f05"},
		"seed77/multi/bt200":   {998, 988, 272, 74372, "39846aceb561ae983084f3fa02bb8649ebd3ba7e45c1f4d5c3c92a3c5680a89e"},
	}
	for _, rc := range cores {
		nl, err := netlist.Random(rc)
		if err != nil {
			t.Fatal(err)
		}
		dead := 0
		for _, o := range nl.Observable() {
			if !o {
				dead++
			}
		}
		if dead == 0 {
			t.Fatalf("core %+v has no dead logic; the pin checks nothing", rc)
		}
		u := faultsim.NewUniverse(nl)
		for _, strategy := range []Backtrace{BacktraceSCOAP, BacktraceMulti} {
			for _, limit := range []int{20, 200} {
				key := fmt.Sprintf("seed%d/%v/bt%d", rc.Seed, strategy, limit)
				for _, workers := range []int{1, 2} {
					opt := Options{FaultDrop: true, FillSeed: 7, BacktrackLimit: limit, Backtrace: strategy, Workers: workers}
					res, err := RunAllCtx(context.Background(), u, opt)
					if err != nil {
						t.Fatal(err)
					}
					got := pinnedRun{res.Detected, res.Untestable, res.Aborted, res.Backtracks, resultDigest(res)}
					if got != want[key] {
						t.Errorf("%s workers=%d: got %+v, pinned %+v", key, workers, got, want[key])
					}
				}
			}
		}
	}
}

// TestLiveRegionUnobservableFault checks the other live region: a fault
// whose gate reaches no primary output confines implication to its
// activation site's fan-in cone. Every trail entry begin and assign write
// must lie in that cone (computed here independently from the netlist),
// and such a fault is never detected.
func TestLiveRegionUnobservableFault(t *testing.T) {
	nl, err := netlist.Random(netlist.RandomConfig{Inputs: 64, Outputs: 32, Gates: 300, MaxFan: 4, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := NewTables(nl)
	if err != nil {
		t.Fatal(err)
	}
	obs := nl.Observable()
	checked := 0
	for _, f := range faultsim.NewUniverse(nl).Faults {
		if obs[f.Gate] {
			continue
		}
		checked++
		site := f.Gate
		if f.Pin >= 0 {
			site = nl.Gates[f.Gate].Fanin[f.Pin]
		}
		cone := map[int]bool{site: true}
		stack := []int{site}
		for len(stack) > 0 {
			gi := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, fi := range nl.Gates[gi].Fanin {
				if !cone[fi] {
					cone[fi] = true
					stack = append(stack, fi)
				}
			}
		}
		for _, strategy := range []Backtrace{BacktraceSCOAP, BacktraceMulti} {
			g := tables.NewGenerator()
			g.Strategy = strategy
			g.BacktrackLimit = 40
			implications := 0
			g.implyHook = func() {
				implications++
				for _, e := range g.trail {
					if !cone[int(e.gate)] {
						t.Fatalf("fault %v (%v): trail entry on gate %d (%s), outside the site's fan-in cone",
							f, strategy, e.gate, nl.Gates[e.gate].Name)
					}
				}
			}
			if _, status := g.Generate(f); status == StatusDetected {
				t.Fatalf("fault %v (%v): detected, but its gate reaches no output", f, strategy)
			}
			if implications == 0 {
				t.Fatalf("fault %v (%v): the imply hook never ran", f, strategy)
			}
		}
	}
	if checked == 0 {
		t.Fatal("the core has no unobservable fault sites; the test checks nothing")
	}
}
