package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"repro/internal/benchprofile"
	"repro/internal/cube"
	"repro/internal/decompressor"
	"repro/internal/encoder"
	"repro/internal/prng"
	"repro/internal/stateskip"
)

// embed runs the paper's pipeline cold on paper-scale cube sets: encode at
// one window length, index the embeddings, reduce over the Table 2 (S, k)
// grid keeping the shortest TSL, and run the decompressor schedule.
type embed struct {
	seed     uint64
	scale    benchprofile.Scale
	circuits []string
	L        int
	Ss, Ks   []int

	sets  []*cube.Set
	first []embedOut // the first pass's outputs, checked once
}

type embedOut struct {
	enc         *encoder.Encoding
	best        *stateskip.Reduction
	sched       *decompressor.Schedule
	res         *decompressor.Result
	tableBuilds float64
	encodeS     float64
}

func newEmbed(cfg config) *embed {
	e := &embed{
		seed: cfg.seed, scale: benchprofile.ScalePaper,
		// Two of the paper's circuits keep a pass short enough for a few
		// passes per run. With s13207 and s38584 too, a run held one pass
		// and its CPU time spread 8% across seeds; s38417's encode alone
		// takes longer than the other four together.
		circuits: []string{"s9234", "s15850"},
		L:        200,
		Ss:       []int{2, 5, 10},
		Ks:       []int{5, 8, 12, 16, 20, 24},
	}
	if cfg.toy {
		e.scale, e.L, e.Ss, e.Ks = benchprofile.ScaleCI, 16, []int{2, 5}, []int{5, 8}
	}
	return e
}

// setup generates each circuit's calibrated cube set and shuffles it with
// the workload seed. The seed permutes the cubes instead of regenerating
// them: a regenerated set may need extra phase-shifter variants, which
// changes the encoder's work several-fold from seed to seed, while a
// permutation keeps the set's encodability and changes only the greedy
// packing.
func (e *embed) setup(ctx context.Context, t *tracer, root int) error {
	for _, name := range e.circuits {
		p, err := benchprofile.ByName(name, e.scale)
		if err != nil {
			return err
		}
		var set *cube.Set
		t.wrap("benchprofile.generate", name, root, func() { set = p.Generate() })
		h := fnv.New64a()
		h.Write([]byte(name))
		r := prng.New(e.seed ^ h.Sum64())
		for i := len(set.Cubes) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			set.Cubes[i], set.Cubes[j] = set.Cubes[j], set.Cubes[i]
		}
		e.sets = append(e.sets, set)
	}
	return nil
}

func (e *embed) reset() { e.sets = nil }

func (e *embed) pass(ctx context.Context, t *tracer, idx int) (*passResult, error) {
	root := t.root("bench.pass", phasePass, idx)
	defer t.end(root)
	pr := &passResult{counters: map[string]float64{}, metrics: map[string]float64{}}
	var encodeS float64
	for ci, name := range e.circuits {
		out, err := e.circuit(ctx, t, root, name, e.sets[ci])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		pr.attempted++
		if idx == 0 {
			e.first = append(e.first, out)
		}
		c := pr.counters
		c["tdv_bits"] += float64(out.enc.TDV())
		c["reduced_tsl"] += float64(out.best.TSL())
		c["encoder.checks"] += float64(out.enc.ChecksPerformed)
		c["encoder.seeds"] += float64(len(out.enc.Seeds))
		c["stateskip.useful_segments"] += float64(out.best.TotalUseful())
		c["decompressor.clocks"] += float64(out.res.Clocks)
		c["decompressor.skip_clocks"] += float64(out.res.SkipClocks)
		c["encoder.table_builds"] += out.tableBuilds
		c["stateskip.reductions"] += float64(len(e.Ss) * len(e.Ks))
		encodeS += out.encodeS
	}
	pr.metrics["encoder.checks_per_s"] = pr.counters["encoder.checks"] / encodeS
	return pr, nil
}

// circuit embeds one cube set, cold: a fresh table cache per call.
func (e *embed) circuit(ctx context.Context, t *tracer, root int, name string, set *cube.Set) (embedOut, error) {
	p, err := benchprofile.ByName(name, e.scale)
	if err != nil {
		return embedOut{}, err
	}
	var out embedOut
	cache := encoder.NewTablesCache()
	t0 := time.Now()
	sp := t.begin("encoder.encode", name, root)
	out.enc, _, err = encoder.EncodeAutoCtx(ctx, p.LFSRSize, p.Width, p.Chains, e.L, set, 2, cache)
	t.end(sp)
	out.encodeS = since(t0)
	out.tableBuilds = float64(cache.Builds())
	if err != nil {
		return out, err
	}
	var idx *stateskip.VecEmbeddings
	t.wrap("stateskip.index", name, root, func() { idx = stateskip.ScanEmbeddingsWorkers(out.enc, 2) })
	sp = t.begin("stateskip.reduce", name, root)
	for _, S := range e.Ss {
		for _, k := range e.Ks {
			opt := stateskip.DefaultOptions(S, k)
			opt.Workers = 2
			red, err := stateskip.ReduceWithIndex(out.enc, idx, opt)
			if err != nil {
				t.end(sp)
				return out, fmt.Errorf("reduce S=%d k=%d: %w", S, k, err)
			}
			if out.best == nil || red.TSL() < out.best.TSL() {
				out.best = red
			}
		}
	}
	t.end(sp)
	sp = t.begin("decompressor.run", name, root)
	out.sched = decompressor.NewSchedule(out.best)
	out.res, err = out.sched.Run()
	t.end(sp)
	return out, err
}

func (e *embed) pid() int { return os.Getpid() }

// check verifies the first pass: every seed reproduces its cubes, every
// reduction covers every cube, and the simulated decompressor applies a
// vector matching every cube.
func (e *embed) check(ctx context.Context, t *tracer, root int, rep *report) {
	for i, out := range e.first {
		name := e.circuits[i]
		var err error
		if t.wrap("encoder.verify", name, root, func() { err = out.enc.Verify() }); err != nil {
			rep.fail(1, "%s: encoding: %v", name, err)
			continue
		}
		if t.wrap("stateskip.verify", name, root, func() { err = out.best.Verify() }); err != nil {
			rep.fail(1, "%s: reduction: %v", name, err)
			continue
		}
		if t.wrap("decompressor.verify", name, root, func() { err = out.sched.VerifyCoverage(out.res) }); err != nil {
			rep.fail(1, "%s: schedule: %v", name, err)
		}
	}
}

func (e *embed) close() {}
