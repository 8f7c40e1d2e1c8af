package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Root-span phases: set-up repetitions, measured passes and the
// correctness checks that run once after them.
const (
	phaseSetup = "setup"
	phasePass  = "pass"
	phaseCheck = "check"
)

// span is one timed call across a layer boundary. Name is
// "<layer>.<operation>"; the layer is everything before the first dot.
type span struct {
	Name   string        `json:"name"`
	Label  string        `json:"label,omitempty"` // circuit, job kind, ...
	Phase  string        `json:"phase"`           // root spans only
	Run    int           `json:"run"`             // pass / set-up index; shared by a span tree
	Parent int           `json:"parent"`          // index into the tracer's spans, -1 for roots
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay one nil check per boundary.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span // guarded by mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its handle.
func (t *tracer) begin(name, label string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Label: label, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// root opens a root span of a phase.
func (t *tracer) root(name, phase string, run int) int {
	id := t.begin(name, "", -1)
	if id >= 0 {
		t.mu.Lock()
		t.spans[id].Phase, t.spans[id].Run = phase, run
		t.mu.Unlock()
	}
	return id
}

// end closes a span opened by begin or root.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a finished span whose interval was measured elsewhere (the
// daemon's job timestamps), clipped to its parent's interval.
func (t *tracer) add(name, label string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Name: name, Label: label, Parent: parent, Start: start.Sub(t.origin), End: end.Sub(t.origin)}
	if parent >= 0 {
		p := t.spans[parent]
		s.Start = min(max(s.Start, p.Start), p.End)
		s.End = min(max(s.End, s.Start), p.End)
	}
	t.spans = append(t.spans, s)
}

// wrap runs f inside a span.
func (t *tracer) wrap(name, label string, parent int, f func()) {
	id := t.begin(name, label, parent)
	f()
	t.end(id)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Overlapping children (concurrent
// calls) are merged first, so a layer is never charged twice for the same
// instant.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, curA, curB time.Duration
		open := false
		for _, c := range iv {
			if open && c[0] <= curB {
				curB = max(curB, c[1])
				continue
			}
			if open {
				covered += curB - curA
			}
			curA, curB, open = c[0], c[1], true
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanStats folds a trace into per-layer figures: for every span name the
// mean total seconds per root of the same phase ("<name>_s", plus
// "<name>_s.<label>" for labelled spans), and for every layer its mean
// self time per root ("<layer>.self_s"). Phase means are summed across
// phases, so the self times of all layers add up to the sum of the mean
// root durations of each phase, which wallS returns.
func spanStats(spans []span) (out map[string]float64, wallS float64) {
	rootOf := make([]int, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = i
		} else {
			rootOf[i] = rootOf[s.Parent] // parents precede children
		}
	}
	roots := map[string]int{}
	for _, s := range spans {
		if s.Parent < 0 {
			roots[s.Phase]++
		}
	}
	self := selfTimes(spans)
	out = map[string]float64{}
	for i, s := range spans {
		w := 1 / float64(roots[spans[rootOf[i]].Phase])
		if s.Parent < 0 {
			wallS += s.dur().Seconds() * w
		}
		out[s.layer()+".self_s"] += self[i].Seconds() * w
		out[s.Name+"_s"] += s.dur().Seconds() * w
		if s.Label != "" {
			out[s.Name+"_s."+s.Label] += s.dur().Seconds() * w
		}
	}
	return out, wallS
}
