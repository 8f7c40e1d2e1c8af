// Command stateskip regenerates the paper's experiments and exposes the
// library's flows (generate → encode → reduce → simulate → emit Verilog)
// from the command line.
//
// Usage:
//
//	stateskip [-scale=ci|paper] [-workers=N] table1|table2|table3|table4|fig4|hw|soc|all
//	stateskip [-scale=...] gen -circuit s13207 -o cubes.txt
//	stateskip [-workers=N] atpg [-bench core.bench] [-backtrack N] [-backtrace scoap|multi] -o cubes.txt
//	stateskip encode -circuit s13207 [-scale=...] -L 200
//	stateskip verilog -n 24 -k 10 -o lfsr.v
//
// The paper scale reruns the full DATE'08 evaluation and takes minutes;
// the default CI scale runs in seconds. -workers bounds the goroutines the
// experiment drivers, the ATPG pipeline and the fault simulator fan out
// across (0, the default, uses every CPU; results are identical for any
// value). -lanewords widens the fault simulator to that many 64-bit words
// of pattern lanes per sweep — 64×N patterns per batch; results are
// bit-identical for any width. -cpuprofile/-memprofile write
// runtime/pprof profiles of any
// subcommand, so the ATPG and encoder hot paths can be measured directly:
//
//	stateskip -cpuprofile atpg.pprof atpg -gates 4000
//	go tool pprof atpg.pprof
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/atpg"
	"repro/internal/benchprofile"
	"repro/internal/cube"
	"repro/internal/encoder"
	"repro/internal/experiments"
	"repro/internal/lfsr"
	"repro/internal/netlist"
	"repro/internal/phaseshifter"
	"repro/internal/stateskip"
	"repro/internal/verilog"
)

// encTables memoizes the encoder's shared symbolic tables for the lifetime
// of the process. A single CLI invocation encodes once, so the cache pays
// off when this binary grows multi-encode subcommands (or is driven as a
// library); today it mainly routes `encode` through the same cached
// EncodeAutoCtx path the experiment drivers use.
var encTables = encoder.NewTablesCache()

func main() {
	// First ^C cancels the context: every engine (ATPG pipeline, encoder
	// candidate scan, fault-simulator pool) polls it cooperatively, so the
	// subcommand stops cleanly, reports partial progress where it has any,
	// and exits non-zero. Once the context fires, stop() unregisters the
	// handler, so a second ^C hard-exits through Go's default behaviour.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stateskip:", err)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "stateskip: interrupted — partial results above, if any")
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("stateskip", flag.ContinueOnError)
	scaleFlag := fs.String("scale", scaleFromEnv(), "experiment scale: ci or paper")
	workersFlag := fs.Int("workers", 0, "worker goroutines for experiments, ATPG and fault simulation (0 = all CPUs)")
	laneFlag := fs.Int("lanewords", 0, "fault-simulator lane words: 64×N patterns per sweep (0 = 1 word; results identical for any width)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the subcommand to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file when the subcommand finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("missing subcommand (table1|table2|table3|table4|fig4|hw|soc|all|gen|encode|atpg|verilog)")
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeMemProfile(*memprofile); err != nil {
				fmt.Fprintln(os.Stderr, "stateskip: memprofile:", err)
			}
		}()
	}
	scale := benchprofile.ScaleCI
	if *scaleFlag == "paper" {
		scale = benchprofile.ScalePaper
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "table1", "table2", "table3", "table4", "fig4", "hw", "soc", "all":
		return runExperiments(ctx, scale, *workersFlag, *laneFlag, cmd)
	case "gen":
		return runGen(scale, rest)
	case "encode":
		return runEncode(ctx, scale, rest)
	case "atpg":
		return runATPG(ctx, scale, *workersFlag, *laneFlag, rest)
	case "verilog":
		return runVerilog(rest)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// writeMemProfile snapshots the heap after a final GC, so the profile
// reflects live allocations rather than garbage.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

func scaleFromEnv() string {
	if os.Getenv("STATESKIP_SCALE") == "paper" {
		return "paper"
	}
	return "ci"
}

func runExperiments(ctx context.Context, scale benchprofile.Scale, workers, laneWords int, which string) error {
	s := experiments.NewSession(scale)
	s.Workers = workers
	s.LaneWords = laneWords
	s.Ctx = ctx // ^C aborts the drivers mid-sweep (see main)
	start := time.Now()
	do := func(name string, f func() error) error {
		if which != "all" && which != name {
			return nil
		}
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("[%s done in %.1fs]\n\n", name, time.Since(t0).Seconds())
		return nil
	}
	if err := do("table1", func() error {
		rows, err := s.Table1()
		if err != nil {
			return err
		}
		fmt.Println(s.Table1Markdown(rows))
		return nil
	}); err != nil {
		return err
	}
	if err := do("table2", func() error {
		rows, err := s.Table2()
		if err != nil {
			return err
		}
		fmt.Println(s.Table2Markdown(rows))
		return nil
	}); err != nil {
		return err
	}
	if err := do("fig4", func() error {
		bars, curves, err := s.Fig4()
		if err != nil {
			return err
		}
		fmt.Println(s.Fig4Markdown(bars, curves))
		return nil
	}); err != nil {
		return err
	}
	if err := do("table3", func() error {
		rows, err := s.Table3()
		if err != nil {
			return err
		}
		fmt.Println(s.Table3Markdown(rows))
		return nil
	}); err != nil {
		return err
	}
	if err := do("table4", func() error {
		rows, err := s.Table4()
		if err != nil {
			return err
		}
		fmt.Println(s.Table4Markdown(rows))
		return nil
	}); err != nil {
		return err
	}
	if err := do("hw", func() error {
		rep, err := s.HWOverhead()
		if err != nil {
			return err
		}
		fmt.Println(s.HWMarkdown(rep))
		return nil
	}); err != nil {
		return err
	}
	if err := do("soc", func() error {
		rep, err := s.SoC()
		if err != nil {
			return err
		}
		fmt.Println(s.SoCMarkdown(rep))
		return nil
	}); err != nil {
		return err
	}
	if which == "all" {
		fmt.Printf("[all experiments done in %.1fs]\n", time.Since(start).Seconds())
	}
	return nil
}

func runGen(scale benchprofile.Scale, args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	circuit := fs.String("circuit", "s13207", "profile name")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := benchprofile.ByName(*circuit, scale)
	if err != nil {
		return err
	}
	set := p.Generate()
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return set.Write(w)
}

func runEncode(ctx context.Context, scale benchprofile.Scale, args []string) error {
	fs := flag.NewFlagSet("encode", flag.ContinueOnError)
	circuit := fs.String("circuit", "s13207", "profile name")
	L := fs.Int("L", 0, "window length (default: scale-dependent)")
	S := fs.Int("S", 0, "segment size (default: scale-dependent)")
	k := fs.Int("k", 10, "State Skip speedup factor")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *L == 0 {
		if scale == benchprofile.ScalePaper {
			*L = 200
		} else {
			*L = 16
		}
	}
	if *S == 0 {
		if scale == benchprofile.ScalePaper {
			*S = 10
		} else {
			*S = 4
		}
	}
	p, err := benchprofile.ByName(*circuit, scale)
	if err != nil {
		return err
	}
	set := p.Generate()
	st := set.Summary()
	fmt.Printf("%s: %d cubes, width %d, s_max %d, %d specified bits\n",
		*circuit, st.Cubes, st.Width, st.MaxSpecified, st.TotalSpecified)
	t0 := time.Now()
	enc, variant, err := encoder.EncodeAutoCtx(ctx, p.LFSRSize, p.Width, p.Chains, *L, set, 0, encTables)
	if err != nil {
		return err
	}
	fmt.Printf("encoded: %d seeds (PS variant %d), TDV %d bits, full-window TSL %d vectors (%.1fs)\n",
		len(enc.Seeds), variant, enc.TDV(), enc.TSL(), time.Since(t0).Seconds())
	fmt.Printf("encoder effort: %d consistency checks, equation index built in %.1fms (symbolic tables shared via cache)\n",
		enc.ChecksPerformed, enc.TableBuildTime.Seconds()*1000)
	red, err := stateskip.Reduce(enc, stateskip.DefaultOptions(*S, *k))
	if err != nil {
		return err
	}
	fmt.Printf("state skip (S=%d, k=%d): TSL %d vectors, improvement %.1f%%, %d/%d useful segments\n",
		*S, *k, red.TSL(), red.Improvement()*100, red.TotalUseful(), len(enc.Seeds)*red.Segs)
	return nil
}

// runATPG generates test cubes for a gate-level core: either a .bench
// netlist supplied with -bench, or a deterministic random circuit.
func runATPG(ctx context.Context, scale benchprofile.Scale, workers, laneWords int, args []string) error {
	fs := flag.NewFlagSet("atpg", flag.ContinueOnError)
	bench := fs.String("bench", "", ".bench netlist (default: generated random core)")
	inputs := fs.Int("inputs", 80, "inputs of the generated core")
	gates := fs.Int("gates", 260, "gates of the generated core")
	outputs := fs.Int("outputs", 48, "outputs of the generated core")
	seed := fs.Uint64("seed", 2008, "generation seed")
	backtrack := fs.Int("backtrack", 0, "PODEM backtrack limit (0 = generator default)")
	backtrace := fs.String("backtrace", "scoap", "PODEM backtrace strategy: scoap (classic single-objective) or multi (FAN/SOCRATES multiple backtrace)")
	out := fs.String("o", "", "cube output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	strategy, ok := atpg.ParseBacktrace(*backtrace)
	if !ok {
		return fmt.Errorf("unknown -backtrace %q (want scoap or multi)", *backtrace)
	}
	var core *netlist.Netlist
	if *bench != "" {
		f, err := os.Open(*bench)
		if err != nil {
			return err
		}
		defer f.Close()
		core, err = netlist.ReadBench(f)
		if err != nil {
			return err
		}
	} else {
		var err error
		core, err = netlist.Random(netlist.RandomConfig{
			Inputs: *inputs, Outputs: *outputs, Gates: *gates, MaxFan: 3, Seed: *seed,
		})
		if err != nil {
			return err
		}
	}
	st, err := core.Summary()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "core: %d inputs, %d outputs, %d gates, %d levels\n",
		st.Inputs, st.Outputs, st.Gates, st.Levels)
	s := experiments.NewSession(scale)
	s.Workers = workers
	s.LaneWords = laneWords
	writeCubes := func(cs *cube.Set) error {
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		return cs.Write(w)
	}
	u, res, err := s.ATPGOptsCtx(ctx, core, atpg.Options{
		FaultDrop: true, FillSeed: *seed, BacktrackLimit: *backtrack, Backtrace: strategy,
	})
	if err != nil {
		if res != nil { // interrupted mid-run: report + keep the partial progress
			fmt.Fprintf(os.Stderr, "ATPG interrupted: %d/%d faults processed, %d cubes, coverage so far %.1f%%\n",
				res.Detected+res.Untestable+res.Aborted, len(u.Faults), res.Cubes.Len(), res.Coverage*100)
			if werr := writeCubes(res.Cubes); werr != nil {
				return fmt.Errorf("%w (and writing partial cubes failed: %v)", err, werr)
			}
		}
		return err
	}
	fmt.Fprintf(os.Stderr, "ATPG (%v backtrace): %d faults, %d untestable, %d aborted, %d cubes, %d backtracks, coverage %.1f%%\n",
		strategy, len(u.Faults), res.Untestable, res.Aborted, res.Cubes.Len(), res.Backtracks, res.Coverage*100)
	return writeCubes(res.Cubes)
}

func runVerilog(args []string) error {
	fs := flag.NewFlagSet("verilog", flag.ContinueOnError)
	n := fs.Int("n", 24, "LFSR size")
	k := fs.Int("k", 10, "State Skip speedup factor")
	chains := fs.Int("chains", 8, "phase shifter outputs")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	l, err := lfsr.NewStandard(lfsr.Fibonacci, *n)
	if err != nil {
		return err
	}
	// Pick a separation window the register's state space can support:
	// small demo registers cannot keep many channels phase-separated over
	// long windows.
	sep := 1024
	if *n < 22 {
		if limit := (1 << uint(*n)) / (8 * *chains); limit < sep {
			sep = limit
		}
		if sep < 8 {
			sep = 8
		}
	}
	ps, _, err := phaseshifter.NewSeparated(context.Background(), l, *chains, sep, 0)
	if err != nil {
		return err
	}
	src := verilog.StateSkipLFSR(l, *k) + "\n" + verilog.PhaseShifter(ps)
	if *out == "" {
		fmt.Println(src)
		return nil
	}
	return os.WriteFile(*out, []byte(src), 0o644)
}
