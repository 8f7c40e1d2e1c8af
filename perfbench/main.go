// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the library packages (or, for daemon_mix, against a
// stateskipd built from the same sources), checks every output, and
// prints the workload's metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run adds a traced pass and reports per-layer ones instead. See
// README.md for the workloads, the metrics and how they relate, and
// run.sh for how the benchmark is built and invoked.
//
//	perfbench -workload atpg_core -seed 1 -seconds 20 -trace 0
//	perfbench -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// A run repeats its set-up at least minSetupReps times, and goes on until
// setupBudget has passed or it has made maxSetupReps; setup_s is the
// median. Cheap set-ups (a few milliseconds) get many repetitions, so
// their median does not rest on a handful of readings.
const (
	minSetupReps = 9
	maxSetupReps = 51
	setupBudget  = 2 * time.Second
)

// maxPasses caps the passes of one measured phase, so a faster program
// cannot move the tail percentile a run reports: batch workloads stay
// below 11 requests (tail = slowest pass) and daemon_mix below 1000 jobs
// (tail = p90).
const maxPasses = 9

// daemonMemPasses is how many of daemon_mix's first passes its peak
// memory is taken over. Four passes fit a 15 s window on a slow host.
const daemonMemPasses = 4

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	toy      bool   // tiny inputs, for the smoke test
	state    string // directory for pins, records, traces and scratch
	daemon   string // stateskipd binary (daemon_mix)
}

// passResult is what one measured pass of a workload produced.
type passResult struct {
	attempted int // operations run
	failed    int // operations that failed or gave wrong output
	// latencies are the request latencies a user saw, in seconds. A batch
	// workload leaves it nil: its request is the whole pass.
	latencies []float64
	counters  map[string]float64 // exact results; the same on every pass of a seed
	metrics   map[string]float64 // per-layer figures other than span times
	problems  []string           // what the failed operations got wrong
}

// workload is one benchmark workload. setup is called repeatedly,
// with reset dropping the previous call's state before each repetition
// after the first, and the state of the last call is kept. pass runs the
// measured work and opens its own root spans; check verifies the first
// pass's outputs (and whatever else needs the finished run) and adds its
// failures to rep.
type workload interface {
	setup(ctx context.Context, t *tracer, root int) error
	reset()
	pass(ctx context.Context, t *tracer, idx int) (*passResult, error)
	// pid is the process doing the work: the benchmark, or the daemon.
	pid() int
	check(ctx context.Context, t *tracer, root int, rep *report)
	close()
}

// setupCPUer is implemented by a workload whose set-up work runs in
// another process. setupCPU returns the CPU seconds that process spent
// in the last set-up.
type setupCPUer interface{ setupCPU() float64 }

// report accumulates a run.
type report struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	SetupS    []float64          `json:"setup_s"`            // CPU seconds of the process doing the set-up
	PassS     []float64          `json:"pass_s"`             // untraced timed passes
	TracedS   []float64          `json:"traced_pass_s"`      // traced passes
	LatS      []float64          `json:"-"`                  // untraced request latencies
	Requests  int                `json:"requests"`           // len(LatS)
	TailPct   float64            `json:"job_p90_percentile"` // the percentile tail() picked for job_p90_s
	MemMB     float64            `json:"peak_mem_mb"`
	MemPassS  float64            `json:"memory_pass_s,omitempty"`      // wall time of the memory pass
	DaemonMem []float64          `json:"daemon_peak_rss_mb,omitempty"` // per untraced pass
	CPUS      []float64          `json:"request_cpu_s"`                // per untraced pass: CPU seconds per request
	Counters  map[string]float64 `json:"counters"`
	Layer     map[string]float64 `json:"-"`
	Problems  []string           `json:"problems,omitempty"`

	layerN map[string]int // traced passes contributing to each Layer entry
}

func newReport() *report {
	return &report{Counters: map[string]float64{}, Layer: map[string]float64{}, layerN: map[string]int{}}
}

// fail records n failed operations with the reason.
func (r *report) fail(n int, format string, args ...any) {
	r.Failed += n
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// addCounters merges a pass's exact results; a value that differs from an
// earlier pass of the same run is a determinism failure.
func (r *report) addCounters(c map[string]float64) {
	for k, v := range c {
		if old, ok := r.Counters[k]; ok && old != v {
			r.fail(1, "counter %s changed between passes: %v then %v", k, old, v)
		}
		r.Counters[k] = v
	}
}

// addLayer accumulates a traced pass's figures; finish turns them into
// means over the passes that reported them.
func (r *report) addLayer(m map[string]float64) {
	for k, v := range m {
		r.Layer[k] += v
		r.layerN[k]++
	}
}

func main() {
	code, err := mainErr(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func mainErr(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var seconds int
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: embed_paper, atpg_core, fault_grade or daemon_mix")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&seconds, "seconds", 15, "measurement window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 adds a traced pass and reports per-layer metrics")
	fs.BoolVar(&cfg.toy, "toy", false, "tiny inputs (smoke test only)")
	fs.StringVar(&cfg.state, "state", ".bench_build", "directory for pins, records, traces and scratch files")
	fs.StringVar(&cfg.daemon, "daemon", ".bench_build/bin/stateskipd", "stateskipd binary for daemon_mix")
	compare := fs.Bool("compare", false, "compare two result records given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare takes two result records")
		}
		return compareRecords(fs.Arg(0), fs.Arg(1), stdout)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return 2, errors.New("-seconds must be ≥ 1 and -trace 0 or 1")
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	w, err := newWorkload(cfg)
	if err != nil {
		return 2, err
	}
	fp, err := fingerprint(".")
	if err != nil {
		return 1, err
	}
	rep, err := runWorkload(context.Background(), cfg, w)
	if err != nil {
		return 1, err
	}
	checkPins(cfg, fp, rep)
	metrics, err := reportMetrics(cfg, rep)
	if err != nil {
		return 1, err
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	if err := saveRecord(cfg, fp, rep, metrics); err != nil {
		return 1, err
	}
	fpLine, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpLine)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(out))
	return 0, nil
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case wEmbed:
		return newEmbed(cfg), nil
	case wATPG:
		return newATPGCore(cfg), nil
	case wGrade:
		return newFaultGrade(cfg), nil
	case wDaemon:
		return newDaemonMix(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// runWorkload sets up, runs untraced passes for the window (half of it
// when tracing, then traced passes for the other half) and checks. An
// untraced run of a workload that works in the benchmark's own process
// first runs a memory pass, outside the window and the timings.
func runWorkload(ctx context.Context, cfg config, w workload) (*report, error) {
	defer w.close()
	rep := newReport()
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	// Set-up is timed in CPU seconds of the process that does it: the
	// benchmark for the batch workloads, the daemon for daemon_mix. Each
	// repetition starts from a collected heap, with the previous
	// repetition's state dropped, so every repetition does the same work.
	setupStart := time.Now()
	for i := 0; i < minSetupReps || i < maxSetupReps && time.Since(setupStart) < setupBudget; i++ {
		if i > 0 {
			w.reset()
		}
		runtime.GC()
		cpu0, err := cpuSeconds(os.Getpid())
		if err != nil {
			return nil, err
		}
		root := t.root("bench.setup", phaseSetup, i)
		err = w.setup(ctx, t, root)
		t.end(root)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		cpu1, err := cpuSeconds(os.Getpid())
		if err != nil {
			return nil, err
		}
		cpu := cpu1 - cpu0
		if o, ok := w.(setupCPUer); ok {
			cpu = o.setupCPU()
		}
		rep.SetupS = append(rep.SetupS, cpu)
	}
	pid := w.pid()
	self := pid == os.Getpid()
	idx := 0
	if self && !cfg.trace {
		mb, err := rep.memoryPass(ctx, w)
		if err != nil {
			return nil, err
		}
		rep.MemMB = mb
		idx++
	}
	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	passes := func(t *tracer) ([]float64, error) {
		var durs []float64
		start := time.Now()
		for len(durs) == 0 || len(durs) < maxPasses && time.Since(start)+time.Duration(durs[len(durs)-1]*float64(time.Second)) <= window {
			if !self {
				if err := resetPeakRSS(pid); err != nil {
					return nil, fmt.Errorf("resetting peak RSS: %w", err)
				}
			}
			cpu0, err := cpuSeconds(pid)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			pr, err := w.pass(ctx, t, idx)
			if err != nil {
				return nil, fmt.Errorf("pass %d: %w", idx, err)
			}
			d := time.Since(t0).Seconds()
			cpu1, err := cpuSeconds(pid)
			if err != nil {
				return nil, err
			}
			durs = append(durs, d)
			if !self && t == nil {
				m, err := peakRSSMB(pid)
				if err != nil {
					return nil, err
				}
				rep.DaemonMem = append(rep.DaemonMem, m)
			}
			idx++
			if pr.latencies == nil {
				pr.latencies = []float64{d}
			}
			rep.addPass(pr)
			if t == nil {
				rep.LatS = append(rep.LatS, pr.latencies...)
				rep.CPUS = append(rep.CPUS, (cpu1-cpu0)/float64(len(pr.latencies)))
			} else {
				rep.addLayer(pr.metrics)
			}
		}
		return durs, nil
	}
	var err error
	if rep.PassS, err = passes(nil); err != nil {
		return nil, err
	}
	if !self {
		// The daemon's peak memory is the median of its peak resident set
		// during each of the first daemonMemPasses untraced passes. The
		// daemon keeps every finished job, so later passes run with more
		// memory held, and how many passes fit the window varies.
		rep.MemMB = median(rep.DaemonMem[:min(len(rep.DaemonMem), daemonMemPasses)])
	}
	if cfg.trace {
		if rep.TracedS, err = passes(t); err != nil {
			return nil, err
		}
	}
	root := t.root("bench.check", phaseCheck, 0)
	w.check(ctx, t, root, rep)
	t.end(root)
	if cfg.trace {
		rep.finishTrace(cfg, t)
	}
	return rep, nil
}

// memoryPass runs one untimed, untraced pass while a heapSampler watches
// the live heap, and returns the pass's peak working memory in MiB: the
// largest live heap seen, less the live heap held when the pass began.
// That leaves out the set-up's inputs, the benchmark's own generated data
// among them. Its outputs are checked and its exact counters compared
// like those of any other pass.
func (r *report) memoryPass(ctx context.Context, w workload) (float64, error) {
	base := liveHeap()
	s := startHeapSampler()
	t0 := time.Now()
	pr, err := w.pass(ctx, nil, 0)
	r.MemPassS = time.Since(t0).Seconds()
	peak := s.stop()
	if err != nil {
		return 0, fmt.Errorf("memory pass: %w", err)
	}
	r.addPass(pr)
	return float64(max(peak, base)-base) / (1 << 20), nil
}

// addPass merges a pass's operation counts, problems and exact results.
func (r *report) addPass(pr *passResult) {
	r.Attempted += pr.attempted
	r.Failed += pr.failed
	r.Problems = append(r.Problems, pr.problems...)
	r.addCounters(pr.counters)
}

// finishTrace folds the spans into per-layer metrics and writes the trace
// out.
func (r *report) finishTrace(cfg config, t *tracer) {
	for k, v := range r.Layer {
		if n := r.layerN[k]; n > 0 {
			r.Layer[k] = v / float64(n)
		}
	}
	spans := t.snapshot()
	sm, wall := spanStats(spans)
	for k, v := range sm {
		r.Layer[k] += v
	}
	r.Layer["trace.wall_s"] = wall
	r.Layer["trace.overhead_ratio"] = median(r.TracedS) / median(r.PassS)
	dir := filepath.Join(cfg.state, "traces")
	b, err := json.Marshal(spans)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-s%d.json", cfg.workload, cfg.seed)), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
	}
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reportMetrics selects the printed metrics: the end-to-end ones for an
// untraced run, the per-layer ones for a traced run. A metric the
// workload must produce but did not is an error in the benchmark itself.
func reportMetrics(cfg config, rep *report) (map[string]metric, error) {
	ok := 0.0
	if rep.Attempted > 0 {
		ok = float64(rep.Attempted-rep.Failed) / float64(rep.Attempted)
	}
	defs, vals := endToEnd, map[string]float64{}
	if cfg.trace {
		defs, vals = perLayer, rep.Layer
		for k, v := range rep.Counters {
			vals[k] = v
		}
		if name, ok := workloadTime[cfg.workload]; ok {
			vals[name] = median(rep.PassS)
		}
		if cfg.workload == wDaemon {
			vals["job_p50_s"] = median(rep.LatS)
			rep.TailPct, vals["job_p90_s"] = tail(rep.LatS)
			vals["jobs_per_s"] = float64(len(rep.LatS)) / sum(rep.PassS)
		}
	} else {
		vals["setup_s"] = median(rep.SetupS)
		vals["peak_mem_mb"] = rep.MemMB
		vals["ok_ratio"] = ok
		vals["request_cpu_s"] = median(rep.CPUS)
	}
	rep.Requests = len(rep.LatS)
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, have := vals[d.Name]
		if !have && d.requiredFor(cfg.workload) {
			return nil, fmt.Errorf("workload %s did not produce metric %s", cfg.workload, d.Name)
		}
		out[d.Name] = metric{v, d.Unit}
	}
	return out, nil
}

// workloadTime names each workload's pass time among the per-layer
// metrics (the daemon's is its job latency instead).
var workloadTime = map[string]string{wEmbed: "embed_s", wATPG: "atpg_s", wGrade: "grade_s"}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
