package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/atpg"
	"repro/internal/benchprofile"
	"repro/internal/encoder"
	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/prng"
	"repro/internal/stateskip"
)

// The daemon's JSON API, as a client sees it.
type (
	jobRequest struct {
		Kind           string `json:"kind"`
		Circuit        string `json:"circuit,omitempty"`
		L              int    `json:"L,omitempty"`
		S              int    `json:"S,omitempty"`
		K              int    `json:"k,omitempty"`
		Bench          string `json:"bench,omitempty"`
		Seed           uint64 `json:"seed,omitempty"`
		Backtrack      int    `json:"backtrack,omitempty"`
		Backtrace      string `json:"backtrace,omitempty"`
		Patterns       int    `json:"patterns,omitempty"`
		IdempotencyKey string `json:"idempotency_key,omitempty"`
	}
	jobStatus struct {
		ID        string     `json:"id"`
		State     string     `json:"state"`
		Error     string     `json:"error"`
		Submitted time.Time  `json:"submitted"`
		Started   *time.Time `json:"started"`
		Finished  *time.Time `json:"finished"`
	}
	encodeResult struct {
		Circuit     string  `json:"circuit"`
		L           int     `json:"L"`
		Seeds       int     `json:"seeds"`
		TDV         int     `json:"tdv_bits"`
		TSL         int     `json:"tsl_vectors"`
		Checks      int64   `json:"consistency_checks"`
		S           int     `json:"S"`
		K           int     `json:"k"`
		ReducedTSL  int     `json:"reduced_tsl"`
		Improvement float64 `json:"improvement"`
	}
	atpgResult struct {
		Inputs     int     `json:"inputs"`
		Outputs    int     `json:"outputs"`
		Gates      int     `json:"gates"`
		Faults     int     `json:"faults"`
		Detected   int     `json:"detected"`
		Untestable int     `json:"untestable"`
		Aborted    int     `json:"aborted"`
		Cubes      int     `json:"cubes"`
		Backtracks int     `json:"backtracks"`
		Coverage   float64 `json:"coverage"`
	}
	coverageResult struct {
		Faults   int     `json:"faults"`
		Detected int     `json:"detected"`
		Patterns int     `json:"patterns"`
		Coverage float64 `json:"coverage"`
	}
	jobResult struct {
		Encode   *encodeResult   `json:"encode"`
		ATPG     *atpgResult     `json:"atpg"`
		Coverage *coverageResult `json:"coverage"`
	}
	resultResponse struct {
		Status jobStatus  `json:"status"`
		Result *jobResult `json:"result"`
	}
	daemonMetrics struct {
		Jobs struct {
			Submitted int64 `json:"submitted"`
			Rejected  int64 `json:"rejected"`
			Retries   int64 `json:"retries"`
		} `json:"jobs"`
		Session struct {
			SetBuilds      int64 `json:"set_builds"`
			EncodingBuilds int64 `json:"encoding_builds"`
			IndexBuilds    int64 `json:"index_builds"`
			TableBuilds    int64 `json:"table_builds"`
			Hits           int64 `json:"hits"`
			Evictions      int64 `json:"evictions"`
		} `json:"session"`
		Cores struct {
			Evictions int `json:"evictions"`
		} `json:"cores"`
		Journal struct {
			Depth int `json:"depth"`
		} `json:"journal"`
	}
)

// jobRecord is one job as the client saw it.
type jobRecord struct {
	req     jobRequest
	id      string
	err     string // why the job failed, "" when it completed
	latency float64
	submitS float64
	queueS  float64
	runS    float64
	lagS    float64
	result  *jobResult
}

// daemonMix drives a stateskipd through its HTTP API with two closed-loop
// clients submitting a seeded mix of encode, ATPG and coverage jobs.
type daemonMix struct {
	bin, dir string
	seed     uint64
	toy      bool
	batch    int // jobs per pass
	poll     time.Duration
	pool     []string // .bench text of the seeded cores the ATPG and coverage jobs use
	client   *http.Client
	d        *daemonProc
	starts   int
	jobs     []*jobRecord
}

// The job mix. The shares are those the workload was specified with:
// about half encode jobs, 30 % ATPG and 20 % coverage, with ATPG and
// coverage jobs on one of a small pool of seeded cores. They are a
// synthetic guess; no recorded stateskipd traffic exists to derive a mix
// or repeat rates from. The core sizes keep every job CI-scale, so HTTP,
// the journal, the queue and the caches are a visible share of a job.
const (
	encodePct   = 50
	atpgPct     = 30 // coverage jobs take the rest
	poolCores   = 10
	covPatterns = 512 // patterns per coverage job
)

var (
	ciCircuits = []string{"s9234", "s13207", "s15850", "s38417", "s38584"}
	windowLens = []int{8, 16, 32}
	segSizes   = []int{2, 4}
	speedups   = []int{4, 8}
)

func daemonCore(seed uint64, toy bool) netlist.RandomConfig {
	if toy {
		return netlist.RandomConfig{Inputs: 16, Outputs: 8, Gates: 80, MaxFan: 3, Seed: seed}
	}
	return netlist.RandomConfig{Inputs: 48, Outputs: 24, Gates: 250, MaxFan: 3, Seed: seed}
}

func newDaemonMix(cfg config) (*daemonMix, error) {
	bin, err := filepath.Abs(cfg.daemon)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(cfg.state, "tmp"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(cfg.state, "tmp"), "daemon_mix-")
	if err != nil {
		return nil, err
	}
	m := &daemonMix{
		bin: bin, dir: dir, seed: cfg.seed, toy: cfg.toy, batch: 100, poll: 2 * time.Millisecond,
		// At most two connections: one per client.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}, Timeout: time.Minute},
	}
	if cfg.toy {
		m.batch = 12
	}
	if m.pool, err = corePool(cfg.seed, cfg.toy); err != nil {
		return nil, err
	}
	return m, nil
}

// corePool generates the seed's pool of cores as .bench text.
func corePool(seed uint64, toy bool) ([]string, error) {
	r := prng.New(seed ^ 0x5eed_c0de)
	pool := make([]string, poolCores)
	for i := range pool {
		b, err := coreBench(daemonCore(r.Uint64(), toy))
		if err != nil {
			return nil, err
		}
		pool[i] = b
	}
	return pool, nil
}

func coreBench(rc netlist.RandomConfig) (string, error) {
	n, err := netlist.Random(rc)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := n.WriteBench(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// requests returns pass idx's job sequence in a seeded order: encodePct
// percent encode jobs (with State Skip reduction) on seeded parameters,
// then atpgPct percent ATPG jobs and the rest coverage jobs. The ATPG and
// coverage jobs each go round the pool, so every pass holds the same
// number of jobs of each kind on each core.
func (m *daemonMix) requests(idx int) []jobRequest {
	r := prng.New(m.seed ^ uint64(idx+1)*0x9e3779b97f4a7c15)
	nEnc, nATPG := m.batch*encodePct/100, m.batch*atpgPct/100
	reqs := make([]jobRequest, m.batch)
	for j := range reqs {
		req := &reqs[j]
		switch {
		case j < nEnc:
			req.Kind = "encode"
			req.Circuit = ciCircuits[r.Intn(len(ciCircuits))]
			req.L = windowLens[r.Intn(len(windowLens))]
			req.S = segSizes[r.Intn(len(segSizes))]
			req.K = speedups[r.Intn(len(speedups))]
		case j < nEnc+nATPG:
			i := j - nEnc
			req.Kind = "atpg"
			req.Backtrack = 20
			req.Backtrace = []string{"scoap", "multi"}[i/len(m.pool)%2]
			req.Bench = m.pool[i%len(m.pool)]
			req.Seed = m.seed + 1
		default:
			req.Kind = "coverage"
			req.Patterns = covPatterns
			req.Bench = m.pool[(j-nEnc-nATPG)%len(m.pool)]
			req.Seed = m.seed + 1
		}
	}
	r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	for j := range reqs {
		reqs[j].IdempotencyKey = fmt.Sprintf("s%d-p%d-j%d", m.seed, idx, j)
	}
	return reqs
}

// reset stops the daemon a previous set-up repetition started.
func (m *daemonMix) reset() {
	if m.d != nil {
		m.d.stop() //nolint:errcheck // only the last set-up's daemon is measured
		m.d = nil
	}
}

// setup starts a daemon on a fresh journal and waits until it is ready.
// Its time is the daemon's CPU time until then (setupCPU): the wall time
// of a start is mostly exec, page faults and the fsync that creates the
// journal, which vary with the host far more than the daemon's own work.
func (m *daemonMix) setup(ctx context.Context, t *tracer, root int) error {
	m.starts++
	var err error
	t.wrap("server.start", "", root, func() {
		m.d, err = startDaemon(ctx, m.bin, filepath.Join(m.dir, fmt.Sprintf("journal-%d", m.starts)))
	})
	return err
}

func (m *daemonMix) pass(ctx context.Context, t *tracer, idx int) (*passResult, error) {
	reqs := m.requests(idx)
	recs := make([]*jobRecord, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			root := t.root("bench.client", phasePass, 2*idx+c)
			defer t.end(root)
			for {
				j := int(next.Add(1) - 1)
				if j >= len(reqs) {
					return
				}
				recs[j] = m.do(ctx, t, root, reqs[j])
			}
		}(c)
	}
	wg.Wait()
	m.jobs = append(m.jobs, recs...)
	pr := &passResult{counters: map[string]float64{}, latencies: []float64{}}
	for _, rec := range recs {
		pr.attempted++
		pr.latencies = append(pr.latencies, rec.latency)
		if rec.err != "" {
			pr.failed++
			continue
		}
		c, p := pr.counters, fmt.Sprintf("daemon.pass%d.", idx)
		switch res := rec.result; {
		case res.Encode != nil:
			c[p+"tdv_bits"] += float64(res.Encode.TDV)
			c[p+"reduced_tsl"] += float64(res.Encode.ReducedTSL)
		case res.ATPG != nil:
			c[p+"atpg_detected"] += float64(res.ATPG.Detected)
			c[p+"backtracks"] += float64(res.ATPG.Backtracks)
			c[p+"cubes"] += float64(res.ATPG.Cubes)
		case res.Coverage != nil:
			c[p+"coverage_detected"] += float64(res.Coverage.Detected)
		}
	}
	return pr, nil
}

// runLayer is the layer a job kind's run time is charged to.
var runLayer = map[string]string{"encode": "encoder", "atpg": "atpg", "coverage": "faultsim"}

// do submits one job and polls until its result arrives. A refused
// submission or a job that does not finish done is a failed operation.
func (m *daemonMix) do(ctx context.Context, t *tracer, root int, req jobRequest) *jobRecord {
	rec := &jobRecord{req: req}
	body, err := json.Marshal(req)
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	t0 := time.Now()
	defer func() { rec.latency = time.Since(t0).Seconds() }()
	js := t.begin("bench.job", req.Kind, root)
	defer t.end(js)
	sp := t.begin("server.submit", req.Kind, js)
	var st jobStatus
	code, err := m.call(ctx, http.MethodPost, "/jobs", body, &st)
	t.end(sp)
	rec.submitS = time.Since(t0).Seconds()
	if err != nil || code != http.StatusAccepted {
		rec.err = fmt.Sprintf("submit refused: HTTP %d %v", code, err)
		return rec
	}
	rec.id = st.ID
	wait := t.begin("bench.poll", req.Kind, js)
	var rr resultResponse
	for {
		time.Sleep(m.poll)
		code, err = m.call(ctx, http.MethodGet, "/jobs/"+rec.id+"/result", nil, &rr)
		if err != nil || code != http.StatusAccepted {
			break
		}
	}
	received := time.Now()
	t.end(wait)
	switch {
	case err != nil || code != http.StatusOK:
		rec.err = fmt.Sprintf("result: HTTP %d %v", code, err)
	case rr.Status.State != "done" || rr.Result == nil:
		rec.err = fmt.Sprintf("job %s ended %s: %s", rec.id, rr.Status.State, rr.Status.Error)
	case rr.Status.Started == nil || rr.Status.Finished == nil:
		rec.err = fmt.Sprintf("job %s done without timestamps", rec.id)
	default:
		s := rr.Status
		rec.result = rr.Result
		rec.queueS = s.Started.Sub(s.Submitted).Seconds()
		rec.runS = s.Finished.Sub(*s.Started).Seconds()
		rec.lagS = received.Sub(*s.Finished).Seconds()
		t.add("server.queue", req.Kind, wait, s.Submitted, *s.Started)
		t.add(runLayer[req.Kind]+".job", req.Kind, wait, *s.Started, *s.Finished)
	}
	return rec
}

// call sends one request to the daemon and decodes a JSON reply into out.
func (m *daemonMix) call(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, m.d.url+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func (m *daemonMix) pid() int { return m.d.cmd.Process.Pid }

func (m *daemonMix) setupCPU() float64 { return m.d.readyCPU }

// check reads the daemon's counters, restarts it on its journal, and
// checks every job twice: the restarted daemon must return it done with
// the same result, and the result must equal the same request computed
// directly through the library. A job failing either check is one failed
// operation; reading the counters, stopping and restarting the daemon are
// one more.
func (m *daemonMix) check(ctx context.Context, t *tracer, root int, rep *report) {
	rep.Attempted++
	daemonOK := true
	var dm daemonMetrics
	if _, err := m.call(ctx, http.MethodGet, "/metrics", nil, &dm); err != nil {
		daemonOK = false
		rep.Problems = append(rep.Problems, fmt.Sprintf("reading /metrics: %v", err))
	}
	builds := dm.Session.SetBuilds + dm.Session.EncodingBuilds + dm.Session.IndexBuilds + dm.Session.TableBuilds
	lookups := builds + dm.Session.Hits
	rep.Layer["experiments.builds"] = float64(builds)
	rep.Layer["experiments.cache_lookups"] = float64(lookups)
	rep.Layer["experiments.cache_hit_ratio"] = float64(dm.Session.Hits) / float64(max(lookups, 1))
	rep.Layer["experiments.evictions"] = float64(dm.Session.Evictions) + float64(dm.Cores.Evictions)
	rep.Layer["server.jobs"] = float64(dm.Jobs.Submitted)
	rep.Layer["server.rejected"] = float64(dm.Jobs.Rejected)
	rep.Layer["server.retries"] = float64(dm.Jobs.Retries)
	rep.Layer["journal.depth"] = float64(dm.Journal.Depth)
	rep.Layer["journal.bytes"] = float64(dirBytes(m.d.journal))
	m.jobLayers(rep)

	journal := m.d.journal
	var err error
	t.wrap("server.stop", "", root, func() { err = m.d.stop() })
	m.d = nil
	if err != nil {
		daemonOK = false
		rep.Problems = append(rep.Problems, fmt.Sprintf("stopping daemon: %v", err))
	}
	t0 := time.Now()
	t.wrap("server.replay", "", root, func() { m.d, err = startDaemon(ctx, m.bin, journal) })
	rep.Layer["journal.replay_s"] = time.Since(t0).Seconds()
	if err != nil {
		rep.fail(1, "restarting on the journal: %v", err)
		return
	}
	if !daemonOK {
		rep.Failed++
	}
	bad := map[*jobRecord]bool{}
	t.wrap("server.recheck", "", root, func() {
		for _, rec := range m.jobs {
			if rec.err != "" {
				continue
			}
			var rr resultResponse
			code, err := m.call(ctx, http.MethodGet, "/jobs/"+rec.id+"/result", nil, &rr)
			switch {
			case err != nil || code != http.StatusOK:
				bad[rec] = true
				rep.Problems = append(rep.Problems, fmt.Sprintf("after restart: job %s: HTTP %d %v", rec.id, code, err))
			case rr.Status.State != "done" || !reflect.DeepEqual(rr.Result, rec.result):
				bad[rec] = true
				rep.Problems = append(rep.Problems, fmt.Sprintf("after restart: job %s is %s with a different result", rec.id, rr.Status.State))
			}
		}
	})
	refs := newReferences()
	t.wrap("bench.reference", "", root, func() {
		for _, rec := range m.jobs {
			if rec.err != "" {
				rep.Problems = append(rep.Problems, rec.err)
				continue
			}
			want, err := refs.result(ctx, rec.req)
			if err != nil {
				bad[rec] = true
				rep.Problems = append(rep.Problems, fmt.Sprintf("reference for job %s: %v", rec.id, err))
			} else if !reflect.DeepEqual(want, rec.result) {
				bad[rec] = true
				rep.Problems = append(rep.Problems, fmt.Sprintf("job %s (%s) differs from the library: got %s, want %s", rec.id, rec.req.Kind, jsonText(rec.result), jsonText(want)))
			}
		}
	})
	rep.Failed += len(bad)
}

// jobLayers derives the server's per-layer figures from every completed
// job's client timings and daemon timestamps.
func (m *daemonMix) jobLayers(rep *report) {
	var submit, queue, lag []float64
	run := map[string][]float64{}
	for _, rec := range m.jobs {
		if rec.err != "" {
			continue
		}
		submit = append(submit, rec.submitS)
		queue = append(queue, rec.queueS)
		lag = append(lag, rec.lagS)
		run[rec.req.Kind] = append(run[rec.req.Kind], rec.runS)
	}
	rep.Layer["server.submit_p50_s"] = median(submit)
	rep.Layer["server.submit_p90_s"] = percentile(submit, 90)
	rep.Layer["server.queue_wait_p50_s"] = median(queue)
	rep.Layer["server.queue_wait_p90_s"] = percentile(queue, 90)
	rep.Layer["server.result_lag_p50_s"] = median(lag)
	for _, k := range []string{"encode", "atpg", "coverage"} {
		rep.Layer["server.run_p50_s."+k] = median(run[k])
	}
}

func (m *daemonMix) close() {
	m.reset()
	os.RemoveAll(m.dir) //nolint:errcheck // scratch space; a leftover is harmless
}

func jsonText(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error { //nolint:errcheck // a partial sum is still informative
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// daemonProc is one running stateskipd.
type daemonProc struct {
	cmd     *exec.Cmd
	url     string
	journal string
	done    chan error // receives Wait's result once the process exits
	// readyCPU is the CPU time the daemon had used, in seconds, when its
	// /readyz first answered 200.
	readyCPU float64
}

// addrWriter collects the daemon's standard error and reports the listen
// address from its start-up line.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if _, rest, ok := strings.Cut(w.buf.String(), "listening on "); ok {
			if addr, _, ok := strings.Cut(rest, " "); ok {
				w.addr <- addr
				w.sent = true
			}
		}
	}
	return len(p), nil
}

// startDaemon starts stateskipd on the journal directory and returns once
// /readyz answers 200.
func startDaemon(ctx context.Context, bin, journal string) (*daemonProc, error) {
	ew := &addrWriter{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-scale", "ci", "-job-workers", "2", "-workers", "1", "-journal", journal)
	cmd.Stderr = ew
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	d := &daemonProc{cmd: cmd, journal: journal, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.After(30 * time.Second)
	select {
	case addr := <-ew.addr:
		d.url = "http://" + addr
	case err := <-d.done:
		d.done <- err
		return nil, fmt.Errorf("daemon exited at start: %v: %s", err, ew.buf.String())
	case <-deadline:
		d.stop() //nolint:errcheck // already failing
		return nil, errors.New("daemon did not report its address")
	}
	for {
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if d.readyCPU, err = cpuSeconds(cmd.Process.Pid); err != nil {
					d.stop() //nolint:errcheck // already failing
					return nil, err
				}
				return d, nil
			}
		}
		select {
		case <-deadline:
			d.stop() //nolint:errcheck // already failing
			return nil, errors.New("daemon not ready within 30s")
		case <-ctx.Done():
			d.stop() //nolint:errcheck // already failing
			return nil, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// stop shuts the daemon down gracefully and waits for it to exit, killing
// it if it has not exited within 20 s.
func (d *daemonProc) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-d.done:
		return err
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // it is exiting either way
		<-d.done
		return errors.New("daemon ignored SIGTERM for 20s; killed")
	}
}

// references computes job results directly through the library, each
// distinct request once.
type references struct {
	memo map[string]*jobResult
	encs map[string]*encoder.Encoding
	idxs map[string]*stateskip.VecEmbeddings
}

func newReferences() *references {
	return &references{
		memo: map[string]*jobResult{},
		encs: map[string]*encoder.Encoding{},
		idxs: map[string]*stateskip.VecEmbeddings{},
	}
}

func (r *references) result(ctx context.Context, req jobRequest) (*jobResult, error) {
	req.IdempotencyKey = ""
	key := jsonText(req)
	if res, ok := r.memo[key]; ok {
		return res, nil
	}
	var res *jobResult
	var err error
	switch req.Kind {
	case "encode":
		res, err = r.encode(ctx, req)
	case "atpg":
		res, err = r.atpg(ctx, req)
	case "coverage":
		res, err = r.coverage(ctx, req)
	default:
		err = fmt.Errorf("unknown kind %q", req.Kind)
	}
	if err != nil {
		return nil, err
	}
	r.memo[key] = res
	return res, nil
}

func (r *references) encode(ctx context.Context, req jobRequest) (*jobResult, error) {
	ekey := fmt.Sprintf("%s/%d", req.Circuit, req.L)
	enc, ok := r.encs[ekey]
	if !ok {
		p, err := benchprofile.ByName(req.Circuit, benchprofile.ScaleCI)
		if err != nil {
			return nil, err
		}
		enc, _, err = encoder.EncodeAutoCtx(ctx, p.LFSRSize, p.Width, p.Chains, req.L, p.Generate(), engineWorkers, encoder.NewTablesCache())
		if err != nil {
			return nil, err
		}
		r.encs[ekey] = enc
		r.idxs[ekey] = stateskip.ScanEmbeddingsWorkers(enc, engineWorkers)
	}
	opt := stateskip.DefaultOptions(req.S, req.K)
	opt.Workers = engineWorkers
	red, err := stateskip.ReduceWithIndex(enc, r.idxs[ekey], opt)
	if err != nil {
		return nil, err
	}
	return &jobResult{Encode: &encodeResult{
		Circuit: req.Circuit, L: req.L, Seeds: len(enc.Seeds), TDV: enc.TDV(), TSL: enc.TSL(),
		Checks: enc.ChecksPerformed, S: req.S, K: req.K,
		ReducedTSL: red.TSL(), Improvement: red.Improvement(),
	}}, nil
}

func (r *references) atpg(ctx context.Context, req jobRequest) (*jobResult, error) {
	n, err := netlist.ReadBench(strings.NewReader(req.Bench))
	if err != nil {
		return nil, err
	}
	st, err := n.Summary()
	if err != nil {
		return nil, err
	}
	bt, ok := atpg.ParseBacktrace(req.Backtrace)
	if !ok {
		return nil, fmt.Errorf("backtrace %q", req.Backtrace)
	}
	u := faultsim.NewUniverse(n)
	res, err := atpg.RunAllCtx(ctx, u, atpg.Options{
		FaultDrop: true, FillSeed: req.Seed, BacktrackLimit: req.Backtrack,
		Backtrace: bt, Workers: engineWorkers,
	})
	if err != nil {
		return nil, err
	}
	return &jobResult{ATPG: &atpgResult{
		Inputs: st.Inputs, Outputs: st.Outputs, Gates: st.Gates,
		Faults: len(u.Faults), Detected: res.Detected, Untestable: res.Untestable,
		Aborted: res.Aborted, Cubes: res.Cubes.Len(), Backtracks: res.Backtracks,
		Coverage: res.Coverage,
	}}, nil
}

func (r *references) coverage(ctx context.Context, req jobRequest) (*jobResult, error) {
	n, err := netlist.ReadBench(strings.NewReader(req.Bench))
	if err != nil {
		return nil, err
	}
	u := faultsim.NewUniverse(n)
	rnd := prng.New(req.Seed)
	patterns := make([][]uint8, req.Patterns)
	for i := range patterns {
		p := make([]uint8, len(n.Inputs))
		for b := range p {
			p[b] = rnd.Bit()
		}
		patterns[i] = p
	}
	det, cov, err := faultsim.CoverageCtx(ctx, u, patterns, faultsim.Options{Workers: engineWorkers})
	if err != nil {
		return nil, err
	}
	return &jobResult{Coverage: &coverageResult{
		Faults: len(u.Faults), Detected: countTrue(det), Patterns: req.Patterns, Coverage: cov,
	}}, nil
}
