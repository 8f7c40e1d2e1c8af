package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		wantP  float64
		wantV  float64
		reason string
	}{
		{0, 100, 0, "no samples"},
		{1, 100, 1, "single sample: its value"},
		{19, 100, 19, "too few for p50: the maximum"},
		{20, 50, 10, "p50 has exactly ten beyond"},
		{99, 50, 50, "p90 would leave nine beyond"},
		{100, 90, 90, "p90 has exactly ten beyond"},
		{999, 90, 900, "p99 would leave nine beyond"},
		{1000, 99, 990, "p99 has exactly ten beyond"},
		{10000, 99.9, 9990, "p99.9 has exactly ten beyond"},
	} {
		p, v := tail(seq(tc.n))
		if p != tc.wantP || v != tc.wantV {
			t.Errorf("n=%d: tail = p%v %v, want p%v %v (%s)", tc.n, p, v, tc.wantP, tc.wantV, tc.reason)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if p := percentile(seq(100), 90); p != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", p)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestSelfTimeNested checks self time on a nested tree with overlapping
// (concurrent) children and a child that outlives its parent.
func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{Name: "bench.pass", Phase: phasePass, Parent: -1, Start: ms(0), End: ms(10)},
		{Name: "encoder.encode", Parent: 0, Start: ms(1), End: ms(4)},
		{Name: "gf2.solve", Parent: 1, Start: ms(2), End: ms(3)},
		{Name: "stateskip.index", Parent: 0, Start: ms(3), End: ms(6)},   // overlaps encode
		{Name: "decompressor.run", Parent: 0, Start: ms(9), End: ms(12)}, // runs past the root
	}
	got := selfTimes(spans)
	// root: 10 minus the union [1,6] ∪ [9,10] = 10 - 5 - 1.
	want := []time.Duration{ms(4), ms(2), ms(1), ms(3), ms(3)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

// TestSpanStatsAddUp checks that per-layer self times, averaged per root
// of each phase, add up to the traced wall time whenever children stay
// inside their parents and do not overlap.
func TestSpanStatsAddUp(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 2; i++ {
		root := tr.root("bench.setup", phaseSetup, i)
		tr.wrap("netlist.read_bench", "", root, func() { time.Sleep(2 * time.Millisecond) })
		tr.end(root)
	}
	for i := 0; i < 3; i++ {
		root := tr.root("bench.pass", phasePass, i)
		tr.wrap("atpg.run_all_scoap", "", root, func() {
			time.Sleep(3 * time.Millisecond)
		})
		enc := tr.begin("encoder.encode", "s9234", root)
		tr.wrap("gf2.solve", "", enc, func() { time.Sleep(time.Millisecond) })
		tr.end(enc)
		tr.end(root)
	}
	m, wall := spanStats(tr.snapshot())
	total := 0.0
	for k, v := range m {
		if strings.HasSuffix(k, ".self_s") {
			total += v
		}
	}
	if math.Abs(total-wall) > 1e-9 {
		t.Errorf("self times add up to %v, traced wall is %v", total, wall)
	}
	if m["atpg.run_all_scoap_s"] < 0.003 || m["netlist.read_bench_s"] < 0.002 {
		t.Errorf("per-root means too small: %v", m)
	}
	if m["encoder.encode_s.s9234"] != m["encoder.encode_s"] {
		t.Errorf("labelled total %v != unlabelled %v", m["encoder.encode_s.s9234"], m["encoder.encode_s"])
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	root := tr.root("bench.pass", phasePass, 0)
	tr.wrap("atpg.run_all_scoap", "", root, func() {})
	tr.add("server.queue", "", root, time.Now(), time.Now())
	tr.end(root)
	if root != -1 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded spans")
	}
}

// TestFailedJobsCounted drives the daemon client against a fake daemon
// that refuses one submission and fails one job, and checks both count as
// failed operations in ok_ratio.
func TestFailedJobsCounted(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			n := posts.Add(1)
			if n == 1 {
				http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
				return
			}
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id":"j%d","state":"queued"}`, n)
		case strings.HasSuffix(r.URL.Path, "/result"):
			now := time.Now().UTC().Format(time.RFC3339Nano)
			if strings.Contains(r.URL.Path, "j2") {
				fmt.Fprintf(w, `{"status":{"id":"j2","state":"failed","error":"boom","submitted":%q,"started":%q,"finished":%q},"result":null}`, now, now, now)
				return
			}
			fmt.Fprintf(w, `{"status":{"id":"j3","state":"done","submitted":%q,"started":%q,"finished":%q},"result":{"coverage":{"faults":10,"detected":5,"patterns":8,"coverage":0.5}}}`, now, now, now)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	pool, err := corePool(1, true)
	if err != nil {
		t.Fatal(err)
	}
	m := &daemonMix{seed: 1, toy: true, batch: 3, poll: time.Millisecond, pool: pool, client: srv.Client(), d: &daemonProc{url: srv.URL}}
	pr, err := m.pass(context.Background(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pr.attempted != 3 || pr.failed != 2 || len(pr.latencies) != 3 {
		t.Fatalf("attempted %d failed %d latencies %d, want 3, 2, 3", pr.attempted, pr.failed, len(pr.latencies))
	}
	rep := newReport()
	rep.Attempted, rep.Failed = pr.attempted, pr.failed
	rep.LatS, rep.SetupS = pr.latencies, []float64{1}
	checkPins(config{workload: wDaemon, seed: 1, state: t.TempDir()}, hostFingerprint{Source: "x"}, rep)
	got, err := reportMetrics(config{workload: wDaemon}, rep)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.0 / 4; got["ok_ratio"].Value != want { // three jobs plus the pin check
		t.Errorf("ok_ratio = %v, want %v", got["ok_ratio"].Value, want)
	}
}

// TestDaemonMixShares checks that every pass holds the specified job
// shares, with the ATPG and coverage jobs spread evenly over the pool.
func TestDaemonMixShares(t *testing.T) {
	pool, err := corePool(5, true)
	if err != nil {
		t.Fatal(err)
	}
	m := &daemonMix{seed: 5, batch: 100, pool: pool}
	for idx := 0; idx < 3; idx++ {
		kinds := map[string]int{}
		type job struct{ kind, core string }
		perCore := map[job]int{}
		for _, r := range m.requests(idx) {
			kinds[r.Kind]++
			if r.Bench != "" {
				perCore[job{r.Kind, r.Bench}]++
			}
		}
		if kinds["encode"] != 50 || kinds["atpg"] != 30 || kinds["coverage"] != 20 {
			t.Errorf("pass %d: job kinds %v, want 50 encode, 30 atpg, 20 coverage", idx, kinds)
		}
		want := map[string]int{"atpg": 30 / poolCores, "coverage": 20 / poolCores}
		if len(perCore) != 2*poolCores {
			t.Errorf("pass %d: %d (kind, core) pairs, want %d", idx, len(perCore), 2*poolCores)
		}
		for j, n := range perCore {
			if n != want[j.kind] {
				t.Errorf("pass %d: a core got %d %s jobs, want %d", idx, n, j.kind, want[j.kind])
			}
		}
	}
}

func TestPinsCatchChangedCounters(t *testing.T) {
	cfg := config{workload: wATPG, seed: 7, state: t.TempDir()}
	fp := hostFingerprint{Source: "abc"}
	rep := newReport()
	rep.Counters["test_cubes"] = 10
	checkPins(cfg, fp, rep)
	if rep.Failed != 0 {
		t.Fatalf("first run failed: %v", rep.Problems)
	}
	rep = newReport()
	rep.Counters["test_cubes"] = 11
	checkPins(cfg, fp, rep)
	if rep.Failed != 1 || rep.Attempted != 1 {
		t.Fatalf("changed counter: attempted %d failed %d, want 1 1", rep.Attempted, rep.Failed)
	}
	rep = newReport()
	rep.addCounters(map[string]float64{"x": 1})
	rep.addCounters(map[string]float64{"x": 2})
	if rep.Failed != 1 {
		t.Fatal("a counter changing between passes was not a failure")
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the metric catalogue and the
// repository's BENCHMARK.json in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("workloads %v, catalogue %v", names, workloadNames)
	}
	for _, c := range []struct {
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("BENCHMARK.json has %d metrics, catalogue %d", len(c.spec), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.spec[i].Name != d.Name || c.spec[i].Unit != d.Unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], catalogue %s [%s]", i, c.spec[i].Name, c.spec[i].Unit, d.Name, d.Unit)
			}
		}
	}
}

// TestSmokeAllWorkloads runs every workload at toy size, untraced and
// traced, and checks that each prints every metric with its unit, that
// its outputs were correct, and that traced self times fit in the traced
// wall time.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon and runs every workload")
	}
	dir := t.TempDir()
	daemon := filepath.Join(dir, "stateskipd")
	build := exec.Command("go", "build", "-o", daemon, "./cmd/stateskipd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building stateskipd: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				code, err := mainErr([]string{"-workload", w, "-seed", "3", "-seconds", "1", "-trace", trace,
					"-toy", "-state", dir, "-daemon", daemon}, &out)
				if err != nil || code != 0 {
					t.Fatalf("exit %d: %v", code, err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
				}
				self := 0.0
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
					if d.requiredFor(w) && m.Value == 0 && trace == "0" {
						t.Errorf("end-to-end metric %s is 0", d.Name)
					}
					if strings.HasSuffix(d.Name, ".self_s") {
						self += m.Value
					}
				}
				if trace == "1" && self > res.Metrics["trace.wall_s"].Value*(1+1e-9) {
					t.Errorf("layer self times add up to %v > traced wall %v", self, res.Metrics["trace.wall_s"].Value)
				}
			})
		}
	}
}

// TestCompareRefusesOtherHost checks that -compare only compares records
// from the same host, and flags an exact counter that changed.
func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fp hostFingerprint, cubes float64) string {
		rep := newReport()
		rep.Counters["test_cubes"] = cubes
		rec := record{Workload: wATPG, Seed: 1, Fingerprint: fp, Metrics: map[string]metric{"request_cpu_s": {1, "s"}}, Report: rep}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	host := hostFingerprint{CPU: "x", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Source: "a"}
	a := write("a.json", host, 10)
	host.Source = "b"
	same := write("same.json", host, 10)
	changed := write("changed.json", host, 11)
	host.NProc = 4
	other := write("other.json", host, 10)

	var out bytes.Buffer
	if code, err := compareRecords(a, same, &out); code != 0 || err != nil {
		t.Errorf("same host, same counters: exit %d, %v\n%s", code, err, out.String())
	}
	if code, _ := compareRecords(a, changed, &out); code != 1 {
		t.Errorf("changed counter: exit %d, want 1", code)
	}
	if code, err := compareRecords(a, other, &out); code != 2 || err == nil {
		t.Errorf("other host: exit %d, %v; want a refusal", code, err)
	}
}
