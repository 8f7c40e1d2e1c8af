package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// hostFingerprint identifies the host and the code a run measured. Runs
// are only comparable when everything but Source matches.
type hostFingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Source is a digest of the checkout's Go sources and go.mod files,
	// which stands in for the commit: checkouts need not be git
	// repositories.
	Source string `json:"source"`
}

func (f hostFingerprint) host() hostFingerprint {
	f.Source = ""
	return f
}

func fingerprint(root string) (hostFingerprint, error) {
	fp := hostFingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
	src, err := sourceDigest(root)
	fp.Source = src
	return fp, err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every .go and go.mod file under root, skipping
// hidden directories such as the build directory.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", fmt.Errorf("source digest: %w", err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkPins compares the run's exact results with those recorded by
// earlier runs of the same workload, seed and source, and records any new
// ones. A difference is a failed check.
func checkPins(cfg config, fp hostFingerprint, rep *report) {
	size := "full"
	if cfg.toy {
		size = "toy"
	}
	dir := filepath.Join(cfg.state, "pins", fp.Source)
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-s%d.json", cfg.workload, size, cfg.seed))
	rep.Attempted++
	pinned := map[string]float64{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &pinned); err != nil {
			rep.fail(1, "pin file %s: %v", path, err)
			return
		}
	}
	keys := make([]string, 0, len(rep.Counters))
	for k := range rep.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	diff := 0
	for _, k := range keys {
		if old, ok := pinned[k]; ok && old != rep.Counters[k] {
			rep.Problems = append(rep.Problems, fmt.Sprintf("counter %s = %v, pinned %v for seed %d", k, rep.Counters[k], old, cfg.seed))
			diff++
		}
		pinned[k] = rep.Counters[k]
	}
	if diff > 0 {
		rep.Failed++
		return
	}
	b, err := json.MarshalIndent(pinned, "", " ")
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = writeFileAtomic(path, b)
	}
	if err != nil {
		rep.fail(1, "writing pins: %v", err)
	}
}

func writeFileAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// record is the full result of one run, kept for later comparison.
type record struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Trace       bool              `json:"trace"`
	Toy         bool              `json:"toy,omitempty"`
	When        time.Time         `json:"when"`
	Fingerprint hostFingerprint   `json:"fingerprint"`
	Metrics     map[string]metric `json:"metrics"`
	Report      *report           `json:"report"`
}

func saveRecord(cfg config, fp hostFingerprint, rep *report, m map[string]metric) error {
	rec := record{cfg.workload, cfg.seed, cfg.trace, cfg.toy, time.Now().UTC(), fp, m, rep}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.state, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-s%d-t%d-%s.json", cfg.workload, cfg.seed, btoi(cfg.trace), rec.When.Format("20060102T150405.000000000"))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func loadRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareRecords prints two runs side by side: every metric with the
// ratio B/A, and every exact counter that differs. It refuses runs from
// different hosts or of different workloads, and exits 1 when an exact
// counter of the same seed differs.
func compareRecords(pathA, pathB string, w io.Writer) (int, error) {
	a, err := loadRecord(pathA)
	if err != nil {
		return 2, err
	}
	b, err := loadRecord(pathB)
	if err != nil {
		return 2, err
	}
	if a.Fingerprint.host() != b.Fingerprint.host() {
		return 2, fmt.Errorf("refusing to compare runs from different hosts: %+v vs %+v", a.Fingerprint.host(), b.Fingerprint.host())
	}
	if a.Workload != b.Workload || a.Toy != b.Toy || a.Trace != b.Trace {
		return 2, fmt.Errorf("refusing to compare different runs: %s/toy=%v/trace=%v vs %s/toy=%v/trace=%v",
			a.Workload, a.Toy, a.Trace, b.Workload, b.Toy, b.Trace)
	}
	names := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %14s %14s %8s\n", a.Workload, "A", "B", "B/A")
	for _, k := range names {
		mb, ok := b.Metrics[k]
		if !ok {
			continue
		}
		ratio := "-"
		if ma := a.Metrics[k]; ma.Value != 0 {
			ratio = fmt.Sprintf("%.3f", mb.Value/ma.Value)
		}
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %8s %s\n", k, a.Metrics[k].Value, mb.Value, ratio, mb.Unit)
	}
	if a.Seed != b.Seed {
		fmt.Fprintln(w, "different seeds: exact counters not compared")
		return 0, nil
	}
	diffs := 0
	keys := make([]string, 0, len(a.Report.Counters))
	for k := range a.Report.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if vb, ok := b.Report.Counters[k]; ok && vb != a.Report.Counters[k] {
			fmt.Fprintf(w, "counter %s differs: %v vs %v\n", k, a.Report.Counters[k], vb)
			diffs++
		}
	}
	if diffs > 0 {
		return 1, nil
	}
	fmt.Fprintln(w, "exact counters identical")
	return 0, nil
}
