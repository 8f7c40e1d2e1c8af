package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// since returns the seconds elapsed since t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// cpuSeconds returns the user+system CPU time a process has used so far.
// CPU time, unlike wall time, does not grow while a shared host's
// hypervisor runs someone else on our CPUs. Another process's time is the
// sum of its threads' scheduler run times, which the kernel keeps in
// nanoseconds; the daemon's threads live as long as it does.
func cpuSeconds(pid int) (float64, error) {
	if pid == os.Getpid() {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, err
		}
		return tv(ru.Utime) + tv(ru.Stime), nil
	}
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, task := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, task.Name()))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for thread %s of process %d", task.Name(), pid)
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat of process %d: %w", pid, err)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// resetPeakRSS lowers another process's peak resident set (VmHWM) to
// its current resident set, so the next reading covers only later work.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for process %d", pid)
}

// heapSampleGap is the pause between a heapSampler's collections. A
// collection takes 3–20 ms on the 2-CPU host, longer for larger heaps and
// while the engine allocates fast.
const heapSampleGap = time.Millisecond

// heapSampler collects garbage over and over while a pass runs, reading
// the live heap after each collection. A forced collection makes a
// reading independent of where the runtime's own collections happen to
// fall, and sampling while the pass runs sees the engine's working state
// (simulator arenas, PODEM state, encoder scratch) that is freed by the
// time its call returns. The collections cost CPU time, so the pass they
// watch is not timed.
//
// Its peak is the largest level held over two consecutive readings, the
// smaller of each pair. A single reading can land on a transient of a few
// milliseconds, such as a buffer that lives only while one call hands over
// to the next, or miss it; which it does varies from run to run and moved
// the largest single reading of fault_grade by 1 MB in two runs of five.
// A level held for two sample intervals is always seen.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		var peak, prev uint64
		for {
			cur := liveHeap()
			peak = max(peak, min(prev, cur))
			prev = cur
			select {
			case <-s.stopc:
				peak = max(peak, min(prev, liveHeap()))
				s.done <- peak
				return
			case <-time.After(heapSampleGap):
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the peak live heap, in bytes.
func (s *heapSampler) stop() uint64 {
	close(s.stopc)
	return <-s.done
}

// liveHeap collects garbage and returns the bytes of heap objects it
// found live.
func liveHeap() uint64 {
	runtime.GC()
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	return m[0].Value.Uint64()
}
