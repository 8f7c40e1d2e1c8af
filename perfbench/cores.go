package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/atpg"
	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/prng"
)

// engineWorkers bounds every engine call's parallelism: the benchmark is
// sized for a 2-CPU host.
const engineWorkers = 2

// coreInput is a gate-level core as a user hands it over: .bench text,
// parsed and prepared at set-up.
type coreInput struct {
	cfg   netlist.RandomConfig
	bench []byte
	net   *netlist.Netlist
	u     *faultsim.Universe
}

// prepare generates the core, serializes it, and parses it back the way a
// user's netlist arrives: ReadBench, Levels, then the fault universe.
func (c *coreInput) prepare(t *tracer, root int) error {
	var err error
	var n *netlist.Netlist
	t.wrap("bench.generate", "", root, func() {
		if n, err = netlist.Random(c.cfg); err == nil {
			var buf bytes.Buffer
			err = n.WriteBench(&buf)
			c.bench = buf.Bytes()
		}
	})
	if err != nil {
		return fmt.Errorf("generating core: %w", err)
	}
	if t.wrap("netlist.read_bench", "", root, func() { c.net, err = netlist.ReadBench(bytes.NewReader(c.bench)) }); err != nil {
		return fmt.Errorf("parsing core: %w", err)
	}
	if t.wrap("netlist.levels", "", root, func() { _, _, err = c.net.Levels() }); err != nil {
		return fmt.Errorf("levelizing core: %w", err)
	}
	t.wrap("faultsim.universe", "", root, func() { c.u = faultsim.NewUniverse(c.net) })
	return nil
}

// atpgCore runs PODEM with fault dropping over one core, once per
// backtrace strategy.
type atpgCore struct {
	core   coreInput
	tables *atpg.Tables
	seed   uint64
	first  []*atpg.Result // the first pass's results, re-graded once
}

var strategies = []struct {
	name string
	bt   atpg.Backtrace
}{{"scoap", atpg.BacktraceSCOAP}, {"multi", atpg.BacktraceMulti}}

// newATPGCore fixes the core and lets the seed key the X-fill of the
// fault-drop patterns, which changes which faults reach PODEM. Seeding the
// core itself moved the CPU time of a pass by 15% from seed to seed.
func newATPGCore(cfg config) *atpgCore {
	rc := netlist.RandomConfig{Inputs: 400, Outputs: 160, Gates: 4000, MaxFan: 3, Seed: coreSeed}
	if cfg.toy {
		rc = netlist.RandomConfig{Inputs: 24, Outputs: 12, Gates: 150, MaxFan: 3, Seed: coreSeed}
	}
	return &atpgCore{core: coreInput{cfg: rc}, seed: cfg.seed}
}

func (a *atpgCore) setup(ctx context.Context, t *tracer, root int) error {
	if err := a.core.prepare(t, root); err != nil {
		return err
	}
	var err error
	t.wrap("atpg.tables", "", root, func() { a.tables, err = atpg.NewTables(a.core.net) })
	return err
}

func (a *atpgCore) reset() { a.core, a.tables = coreInput{cfg: a.core.cfg}, nil }

func (a *atpgCore) pass(ctx context.Context, t *tracer, idx int) (*passResult, error) {
	root := t.root("bench.pass", phasePass, idx)
	defer t.end(root)
	pr := &passResult{counters: map[string]float64{}, metrics: map[string]float64{}}
	faults := float64(len(a.core.u.Faults))
	var detected, testable float64
	for _, s := range strategies {
		opt := atpg.Options{
			FaultDrop: true, FillSeed: a.seed, BacktrackLimit: 20,
			Backtrace: s.bt, Workers: engineWorkers, Tables: a.tables,
		}
		t0 := time.Now()
		sp := t.begin("atpg.run_all_"+s.name, "", root)
		res, err := atpg.RunAllCtx(ctx, a.core.u, opt)
		t.end(sp)
		secs := since(t0)
		if err != nil {
			return nil, fmt.Errorf("RunAll %s: %w", s.name, err)
		}
		pr.attempted++
		if idx == 0 {
			a.first = append(a.first, res)
		}
		pr.metrics["atpg.faults_per_s_"+s.name] = faults / secs
		c := pr.counters
		c["test_cubes"] += float64(res.Cubes.Len())
		c["atpg.backtracks_"+s.name] = float64(res.Backtracks)
		c["atpg.aborted_"+s.name] = float64(res.Aborted)
		c["atpg.untestable_"+s.name] = float64(res.Untestable)
		detected += float64(res.Detected)
		testable += faults - float64(res.Untestable)
	}
	pr.counters["fault_coverage"] = detected / testable
	pr.counters["faultsim.faults"] = faults
	return pr, nil
}

func (a *atpgCore) pid() int { return os.Getpid() }

// check re-grades each strategy's fault-drop patterns with the fault
// simulator, which must detect at least the faults RunAll claimed.
func (a *atpgCore) check(ctx context.Context, t *tracer, root int, rep *report) {
	for i, res := range a.first {
		var det []bool
		var err error
		t.wrap("faultsim.regrade", strategies[i].name, root, func() {
			det, _, err = faultsim.CoverageCtx(ctx, a.core.u, res.Patterns, faultsim.Options{Workers: engineWorkers, LaneWords: 8})
		})
		if err != nil {
			rep.fail(1, "re-grade %s: %v", strategies[i].name, err)
			continue
		}
		if got := countTrue(det); got < res.Detected {
			rep.fail(1, "re-grade %s: patterns detect %d faults, RunAll claimed %d", strategies[i].name, got, res.Detected)
		}
	}
}

func (a *atpgCore) close() {}

// faultGrade fault-simulates a seeded pseudorandom pattern set over one
// large core at two lane widths, which must agree exactly. The core is
// the same for every seed: how many faults a random 20 000-gate netlist
// leaves undetected, and so the simulator's work, varies by a fifth from
// one generated core to the next, while a pattern set of this size grades
// almost the same every time.
type faultGrade struct {
	core     coreInput
	seed     uint64
	patterns [][]uint8
}

// coreSeed generates the atpg_core and fault_grade cores.
const coreSeed = 2008

// laneWidths are the graded widths: the default single word and W=8.
var laneWidths = []int{1, 8}

func newFaultGrade(cfg config) *faultGrade {
	rc := netlist.RandomConfig{Inputs: 800, Outputs: 320, Gates: 20000, MaxFan: 3, Seed: coreSeed}
	n := 16384
	if cfg.toy {
		rc, n = netlist.RandomConfig{Inputs: 32, Outputs: 16, Gates: 300, MaxFan: 3, Seed: coreSeed}, 256
	}
	return &faultGrade{core: coreInput{cfg: rc}, seed: cfg.seed, patterns: make([][]uint8, n)}
}

func (g *faultGrade) setup(ctx context.Context, t *tracer, root int) error {
	if err := g.core.prepare(t, root); err != nil {
		return err
	}
	t.wrap("bench.patterns", "", root, func() {
		r := prng.New(g.seed)
		for i := range g.patterns {
			p := make([]uint8, g.core.cfg.Inputs)
			for b := range p {
				p[b] = r.Bit()
			}
			g.patterns[i] = p
		}
	})
	return nil
}

func (g *faultGrade) reset() {
	g.core = coreInput{cfg: g.core.cfg}
	clear(g.patterns)
}

func (g *faultGrade) pass(ctx context.Context, t *tracer, idx int) (*passResult, error) {
	root := t.root("bench.pass", phasePass, idx)
	defer t.end(root)
	pr := &passResult{counters: map[string]float64{}, metrics: map[string]float64{}}
	faults := float64(len(g.core.u.Faults))
	var ref []bool
	for _, w := range laneWidths {
		name := fmt.Sprintf("w%d", w)
		t0 := time.Now()
		sp := t.begin("faultsim.grade_"+name, "", root)
		det, _, err := faultsim.CoverageCtx(ctx, g.core.u, g.patterns, faultsim.Options{Workers: engineWorkers, LaneWords: w})
		t.end(sp)
		secs := since(t0)
		if err != nil {
			return nil, fmt.Errorf("grade W=%d: %w", w, err)
		}
		pr.attempted++
		pr.metrics["faultsim.fault_patterns_per_s_"+name] = faults * float64(len(g.patterns)) / secs
		if ref == nil {
			ref = det
			pr.counters["faultsim.detected"] = float64(countTrue(det))
		} else if !slices.Equal(ref, det) {
			pr.failed++
			pr.problems = append(pr.problems, fmt.Sprintf("W=%d detects a different fault set than W=1", w))
		}
	}
	pr.counters["faultsim.faults"] = faults
	return pr, nil
}

func (g *faultGrade) pid() int { return os.Getpid() }

// check has nothing left to do: every pass compares the widths.
func (g *faultGrade) check(ctx context.Context, t *tracer, root int, rep *report) {}

func (g *faultGrade) close() {}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
