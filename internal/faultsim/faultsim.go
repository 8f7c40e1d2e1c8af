// Package faultsim provides the single stuck-at fault universe and a
// word-sliced bit-parallel fault simulator over internal/netlist circuits —
// the second half of the Atalanta substitute (ARCHITECTURE.md §①). The ATPG
// package uses it to drop detected faults, and tests use it to confirm that
// every cube the flow produces really detects its target fault.
//
// A Simulator evaluates W 64-bit lane words at once (Options.LaneWords,
// default 1), so one event-driven sweep covers up to 64×W patterns — 256 or
// 512 at W=4/8. Its per-gate planes live in contiguous arenas (one slab for
// the whole circuit, indexed gate×W) and the shared topology stores fan-out
// lists in index-based CSR form, so building a 100k-gate simulator costs a
// handful of allocations instead of one per gate.
//
// The simulator is event-driven: injecting a fault only re-evaluates the
// gates inside the fault's output cone (scheduled level by level over the
// levelized netlist), not the whole circuit. One propagation loop serves
// every lane width; at each gate the simulator's width picks the kernel —
// single-word netlist.GateType.EvalWord at W=1, plane-wise EvalWords above.
// Faults whose site cannot reach a primary output are rejected without
// simulating a single gate. CoverageCtx sweeps the universe's fault list in
// fixed-size chunks claimed by a worker pool (see Options), with one
// Simulator of scratch state per worker; the per-universe topology (levels,
// CSR fan-out, output reachability) is computed once and shared.
package faultsim

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/netlist"
)

// Fault is a single stuck-at fault on a gate output or a gate input pin.
type Fault struct {
	Gate  int   // gate index in the netlist
	Pin   int   // -1 = output fault, otherwise fan-in pin index
	Stuck uint8 // stuck-at value, 0 or 1
}

// String renders the fault in the conventional g<idx>.<site>/sa<v> form.
func (f Fault) String() string {
	loc := "out"
	if f.Pin >= 0 {
		loc = fmt.Sprintf("in%d", f.Pin)
	}
	return fmt.Sprintf("g%d.%s/sa%d", f.Gate, loc, f.Stuck)
}

// Universe lists the faults of a circuit after structural equivalence
// collapsing. It also lazily caches the circuit topology shared by every
// Simulator built over it, so worker pools are cheap to spin up.
type Universe struct {
	// Net is the circuit the faults live on.
	Net *netlist.Netlist
	// Faults is the collapsed stuck-at list in canonical gate order.
	Faults []Fault

	topoOnce sync.Once
	topo     *topology
	topoErr  error
}

// NewUniverse builds the collapsed stuck-at fault list.
//
// Collapsing rules (standard dominance-free structural equivalences):
// every gate output gets sa0+sa1; gate input-pin faults are kept only on
// fan-out stems' branches — an input pin fed by a signal with fan-out 1 is
// equivalent to the driver's output fault and is dropped. For inverters
// and buffers, input faults are always equivalent to output faults and are
// dropped too.
func NewUniverse(n *netlist.Netlist) *Universe {
	// loads[s] counts the gate fan-in pins reading signal s, plus one per
	// primary-output marking — the quantity the collapsing rules key on.
	loads := make([]int32, n.NumGates())
	for _, g := range n.Gates {
		for _, f := range g.Fanin {
			loads[f]++
		}
	}
	for _, o := range n.Outputs {
		loads[o]++
	}
	u := &Universe{Net: n}
	for gi := range n.Gates {
		g := &n.Gates[gi]
		if g.Type != netlist.Input || loads[gi] > 0 {
			u.Faults = append(u.Faults, Fault{Gate: gi, Pin: -1, Stuck: 0}, Fault{Gate: gi, Pin: -1, Stuck: 1})
		}
		if g.Type == netlist.Buf || g.Type == netlist.Not {
			continue
		}
		for pin, f := range g.Fanin {
			if loads[f] > 1 {
				u.Faults = append(u.Faults, Fault{Gate: gi, Pin: pin, Stuck: 0}, Fault{Gate: gi, Pin: pin, Stuck: 1})
			}
		}
	}
	return u
}

// topology holds the per-circuit structures every Simulator shares: the
// topological order, per-gate levels, CSR lists of observable fan-outs and
// output reachability. It is immutable once built; order and level are the
// netlist's shared caches (netlist.Levelize/Levels), never mutated here.
// The fan-out lists are stored index-based — one flat int32 adjacency slab
// plus an offset array — so a 100k-gate topology is two allocations, not
// one slice header per gate.
type topology struct {
	order      []int
	level      []int
	numLevels  int
	fanoutOff  []int32 // CSR offsets; gate gi's observable fan-outs are fanoutList[fanoutOff[gi]:fanoutOff[gi+1]]
	fanoutList []int32
	isOutput   []bool
	observable []bool // gate has a path to some primary output
}

// fanouts returns gate gi's fan-out list as a view into the CSR slab (all
// fan-outs while newTopology computes observability, the observable ones
// after).
func (t *topology) fanouts(gi int) []int32 {
	return t.fanoutList[t.fanoutOff[gi]:t.fanoutOff[gi+1]]
}

// topology returns the (lazily computed, cached) circuit topology. Safe for
// concurrent use; the levelization error, if any, is cached too.
func (u *Universe) topology() (*topology, error) {
	u.topoOnce.Do(func() {
		u.topo, u.topoErr = newTopology(u.Net)
	})
	return u.topo, u.topoErr
}

func newTopology(n *netlist.Netlist) (*topology, error) {
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	level, numLevels, err := n.Levels()
	if err != nil {
		return nil, err
	}
	ng := n.NumGates()
	t := &topology{
		order:      order,
		level:      level,
		numLevels:  numLevels,
		isOutput:   make([]bool, ng),
		observable: make([]bool, ng),
	}
	// CSR fan-out: count loads per signal, prefix-sum into offsets, then
	// fill in ascending gate order — the same per-gate order the old
	// slice-of-slices build produced.
	t.fanoutOff = make([]int32, ng+1)
	for _, g := range n.Gates {
		for _, f := range g.Fanin {
			t.fanoutOff[f+1]++
		}
	}
	for gi := 0; gi < ng; gi++ {
		t.fanoutOff[gi+1] += t.fanoutOff[gi]
	}
	t.fanoutList = make([]int32, t.fanoutOff[ng])
	cur := make([]int32, ng)
	copy(cur, t.fanoutOff[:ng])
	for gi, g := range n.Gates {
		for _, f := range g.Fanin {
			t.fanoutList[cur[f]] = int32(gi)
			cur[f]++
		}
	}
	for _, o := range n.Outputs {
		t.isOutput[o] = true
	}
	// Output reachability in reverse topological order: a gate is observable
	// iff it is an output or some fan-out gate is.
	for i := len(order) - 1; i >= 0; i-- {
		gi := order[i]
		if t.isOutput[gi] {
			t.observable[gi] = true
			continue
		}
		for _, fo := range t.fanouts(gi) {
			if t.observable[fo] {
				t.observable[gi] = true
				break
			}
		}
	}
	// Events outside the observable set can never change a primary output,
	// so compact every fan-out list, in place, to its observable gates:
	// detect then schedules whole lists without a per-edge check.
	kept := int32(0)
	for gi := 0; gi < ng; gi++ {
		start, end := t.fanoutOff[gi], t.fanoutOff[gi+1]
		t.fanoutOff[gi] = kept
		for _, fo := range t.fanoutList[start:end] {
			if t.observable[fo] {
				t.fanoutList[kept] = fo
				kept++
			}
		}
	}
	t.fanoutOff[ng] = kept
	t.fanoutList = t.fanoutList[:kept]
	return t, nil
}

// MaxLaneWords bounds a Simulator's lane width: 64 words = 4096 patterns
// per sweep, far past the point of diminishing returns, and a guard
// against absurd per-simulator arena sizes.
const MaxLaneWords = 64

// ErrLaneOverflow is returned (wrapped) when a pattern batch would exceed
// the simulator's lane capacity — more than Capacity() = 64×LaneWords
// patterns via LoadPatterns or AppendPattern.
var ErrLaneOverflow = errors.New("faultsim: pattern count exceeds lane capacity")

// Simulator evaluates up to 64×W test patterns at once against the
// fault-free circuit and, fault by fault, against the faulty one (serial
// fault, parallel pattern — Atalanta's scheme, widened to W lane words).
// All per-gate planes are flat arenas: gate gi's lanes occupy words
// [gi*W, (gi+1)*W), so a simulator is a fixed handful of slab allocations
// regardless of circuit size. It is not safe for concurrent use; build one
// per worker (they share the universe's topology).
type Simulator struct {
	u    *Universe
	topo *topology
	w    int // lane words per gate; capacity = 64*w patterns

	good   []uint64 // fault-free plane arena, gate gi at [gi*w:(gi+1)*w], bit i of word k = pattern 64k+i
	bad    []uint64 // faulty plane arena, valid only where stamp == epoch
	stamp  []uint32 // epoch stamp marking gates with a diverged faulty value
	queued []uint32 // epoch stamp marking gates scheduled for evaluation
	epoch  uint32
	levels [][]int    // per-level worklist buckets, reused across faults
	buf    []uint64   // fan-in word gather scratch (W=1 kernel)
	planes [][]uint64 // fan-in plane gather scratch (W>1 kernel, fault-free load)
	dbuf   []uint64   // w-word detect-mask scratch, the DetectLanes result
	zeros  []uint64   // constant all-zero stuck plane
	ones   []uint64   // constant all-one stuck plane
	loaded []uint64   // w-word mask of valid pattern lanes
	count  int        // number of loaded pattern lanes
	dirty  bool       // input lanes changed; fault-free evaluation pending
}

// NewSimulator prepares a simulator with laneWords 64-bit words of pattern
// lanes, for a batch capacity of 64×laneWords patterns per sweep.
// laneWords must be in [1, MaxLaneWords].
func NewSimulator(u *Universe, laneWords int) (*Simulator, error) {
	if laneWords < 1 || laneWords > MaxLaneWords {
		return nil, fmt.Errorf("faultsim: LaneWords %d (want 1..%d)", laneWords, MaxLaneWords)
	}
	topo, err := u.topology()
	if err != nil {
		return nil, err
	}
	ng := u.Net.NumGates()
	ones := make([]uint64, laneWords)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	return &Simulator{
		u:      u,
		topo:   topo,
		w:      laneWords,
		good:   make([]uint64, ng*laneWords),
		bad:    make([]uint64, ng*laneWords),
		stamp:  make([]uint32, ng),
		queued: make([]uint32, ng),
		levels: make([][]int, topo.numLevels),
		dbuf:   make([]uint64, laneWords),
		zeros:  make([]uint64, laneWords),
		ones:   ones,
		loaded: make([]uint64, laneWords),
	}, nil
}

// LaneWords returns the simulator's lane width W in 64-bit words.
func (s *Simulator) LaneWords() int { return s.w }

// Capacity returns the maximum pattern batch size, 64×LaneWords.
func (s *Simulator) Capacity() int { return 64 * s.w }

// LoadPatterns bit-slices up to Capacity fully specified patterns (each of
// length len(Inputs)) into a fresh batch. The fault-free simulation is
// deferred to the first use (see AppendPattern).
func (s *Simulator) LoadPatterns(patterns [][]uint8) error {
	if len(patterns) > s.Capacity() {
		return fmt.Errorf("%w: %d patterns, capacity %d (LaneWords=%d)",
			ErrLaneOverflow, len(patterns), s.Capacity(), s.w)
	}
	if len(patterns) == 0 {
		return fmt.Errorf("faultsim: %d patterns (want 1..%d)", len(patterns), s.Capacity())
	}
	s.ResetPatterns()
	for _, p := range patterns {
		if err := s.AppendPattern(p); err != nil {
			return err
		}
	}
	return nil
}

// ResetPatterns empties the pattern batch so AppendPattern can build a new
// one lane by lane.
func (s *Simulator) ResetPatterns() {
	clear(s.good)
	clear(s.loaded)
	s.count = 0
	s.dirty = false
}

// AppendPattern adds one fully specified pattern to the next free lane of
// the current batch (up to Capacity) without re-packing the lanes already
// loaded. The fault-free evaluation is deferred until the next DetectLanes
// or DetectAny (or AdoptPatterns), so appending k patterns back to back
// costs one circuit evaluation, not k — the primitive RunAll's drop loop
// builds its 64×W-wide batches with.
func (s *Simulator) AppendPattern(p []uint8) error {
	if s.count >= s.Capacity() {
		return fmt.Errorf("%w: batch already holds %d patterns (LaneWords=%d)",
			ErrLaneOverflow, s.Capacity(), s.w)
	}
	n := s.u.Net
	if len(p) != len(n.Inputs) {
		return fmt.Errorf("faultsim: pattern %d has %d bits, want %d", s.count, len(p), len(n.Inputs))
	}
	word := s.count >> 6
	bit := uint64(1) << uint(s.count&63)
	for ii, gi := range n.Inputs {
		if p[ii]&1 != 0 {
			s.good[gi*s.w+word] |= bit
		}
	}
	s.count++
	s.loaded[word] |= bit
	s.dirty = true
	return nil
}

// PatternCount returns the number of pattern lanes currently loaded.
func (s *Simulator) PatternCount() int { return s.count }

// ensureEval runs the deferred fault-free evaluation of the loaded batch:
// every non-input gate in topological order, from the input lanes.
func (s *Simulator) ensureEval() {
	if !s.dirty {
		return
	}
	w := s.w
	for _, gi := range s.topo.order {
		g := &s.u.Net.Gates[gi]
		if g.Type == netlist.Input {
			continue // inputs hold the pattern lanes
		}
		s.planes = s.planes[:0]
		for _, fi := range g.Fanin {
			s.planes = append(s.planes, s.good[fi*w:fi*w+w])
		}
		g.Type.EvalWords(s.good[gi*w:gi*w+w], s.planes)
	}
	s.dirty = false
}

// AdoptPatterns copies the fault-free state of src, which must be a
// simulator over the same universe with the same lane width and patterns
// loaded. A worker pool uses it to pay the fault-free simulation once per
// batch.
func (s *Simulator) AdoptPatterns(src *Simulator) {
	src.ensureEval()
	copy(s.good, src.good)
	copy(s.loaded, src.loaded)
	s.count = src.count
	s.dirty = false
}

// stuckPlane returns the constant all-0 or all-1 lane plane for a stuck
// value.
func (s *Simulator) stuckPlane(b uint8) []uint64 {
	if b != 0 {
		return s.ones
	}
	return s.zeros
}

// DetectLanes simulates one fault against the loaded patterns and returns
// the per-lane-word detect masks: bit p of word k is set when pattern
// 64k+p detects the fault (differs on some primary output). The returned
// slice is scratch owned by the simulator, valid until the next Detect
// call; copy it to retain it.
func (s *Simulator) DetectLanes(f Fault) []uint64 {
	s.detect(f, false)
	return s.dbuf
}

// DetectAny reports whether any loaded pattern detects the fault —
// DetectLanes != 0 with an early exit: the level-by-level propagation stops
// at the first level where a primary output shows a (lane-masked)
// difference, instead of simulating the rest of the fault cone. The drop
// loops only need the boolean, and detected faults are exactly the ones
// whose cones propagate furthest.
func (s *Simulator) DetectAny(f Fault) bool {
	return s.detect(f, true)
}

// detect is the event-driven propagation loop behind DetectLanes and
// DetectAny. Only gates downstream of the injection point are re-evaluated,
// level by level; propagation stops wherever the faulty planes reconverge
// with the fault-free ones in every lane, and gates that cannot reach a
// primary output are never scheduled. Faulty values land in the bad
// arena, which is read back only where the gate carries the current
// epoch's stamp. It reports whether any lane detects the fault. Without early, the per-word output differences
// accumulate into s.dbuf; with early, detect stops at the first level
// where some loaded lane of a primary output differs and leaves s.dbuf
// alone. DetectAny must not write it: a pool's simulators are built back
// to back, so their small scratch slices can share cache lines, and a
// per-fault write there made the two-worker W=1 sweep ~10% slower.
func (s *Simulator) detect(f Fault, early bool) bool {
	if !early {
		clear(s.dbuf)
	}
	t := s.topo
	if s.count == 0 || !t.observable[f.Gate] {
		return false
	}
	s.ensureEval()
	s.epoch++
	if s.epoch == 0 { // uint32 wrap: every stale stamp would look current
		clear(s.stamp)
		clear(s.queued)
		s.epoch = 1
	}
	s.schedule(f.Gate)
	w := s.w
	hit := false
	for lv := t.level[f.Gate]; lv < len(s.levels); lv++ {
		bucket := s.levels[lv]
		if len(bucket) == 0 {
			continue
		}
		for _, gi := range bucket {
			// The lane width picks the gate kernel (see evalWord).
			if w == 1 {
				v := s.evalWord(gi, f)
				if v == s.good[gi] {
					continue // reconverged: nothing propagates
				}
				s.bad[gi] = v
			} else if !s.evalPlanes(gi, f) {
				continue // reconverged in every lane: nothing propagates
			}
			s.stamp[gi] = s.epoch
			if t.isOutput[gi] {
				for k := range s.loaded {
					if d := (s.good[gi*w+k] ^ s.bad[gi*w+k]) & s.loaded[k]; d != 0 {
						hit = true
						if !early {
							s.dbuf[k] |= d
						}
					}
				}
			}
			for _, fo := range t.fanouts(gi) {
				s.schedule(int(fo))
			}
		}
		s.levels[lv] = bucket[:0]
		if early && hit {
			for l := lv + 1; l < len(s.levels); l++ {
				s.levels[l] = s.levels[l][:0]
			}
			return true
		}
	}
	return hit
}

// schedule queues a gate for evaluation in the current epoch. Fan-out gates
// are always at a strictly higher level than their driver, so buckets below
// the cursor are never appended to.
func (s *Simulator) schedule(gi int) {
	if s.queued[gi] == s.epoch {
		return
	}
	s.queued[gi] = s.epoch
	lv := s.topo.level[gi]
	s.levels[lv] = append(s.levels[lv], gi)
}

// evalWord is the W=1 gate kernel: it returns gate gi's faulty value —
// the stuck word for an output fault at gi, otherwise EvalWord over each
// fan-in's current word (the stuck word on the faulty pin, bad where the
// fan-in is stamped this epoch, good elsewhere). Gathering single words
// instead of one-word planes keeps W=1 as fast as a dedicated scalar
// engine; pushing it through evalPlanes costs ~27%.
func (s *Simulator) evalWord(gi int, f Fault) uint64 {
	if f.Gate == gi && f.Pin == -1 {
		return s.stuckPlane(f.Stuck)[0]
	}
	g := &s.u.Net.Gates[gi]
	if g.Type == netlist.Input {
		return s.good[gi]
	}
	s.buf = s.buf[:0]
	for pin, fi := range g.Fanin {
		var fv uint64
		switch {
		case f.Gate == gi && f.Pin == pin:
			fv = s.stuckPlane(f.Stuck)[0]
		case s.stamp[fi] == s.epoch:
			fv = s.bad[fi]
		default:
			fv = s.good[fi]
		}
		s.buf = append(s.buf, fv)
	}
	return g.Type.EvalWord(s.buf)
}

// evalPlanes is the W>1 gate kernel: it evaluates gate gi's faulty planes
// into its slot of the bad arena — the stuck plane for an output fault at
// gi, otherwise EvalWords over each fan-in's current plane, chosen as in
// evalWord — and reports whether they differ from the fault-free planes
// in any lane.
func (s *Simulator) evalPlanes(gi int, f Fault) bool {
	w := s.w
	good, bad := s.good[gi*w:gi*w+w], s.bad[gi*w:gi*w+w]
	g := &s.u.Net.Gates[gi]
	switch {
	case f.Gate == gi && f.Pin == -1:
		copy(bad, s.stuckPlane(f.Stuck))
	case g.Type == netlist.Input:
		return false // an unfaulted input keeps its pattern lanes
	default:
		s.planes = s.planes[:0]
		for pin, fi := range g.Fanin {
			p := s.good[fi*w : fi*w+w]
			switch {
			case f.Gate == gi && f.Pin == pin:
				p = s.stuckPlane(f.Stuck)
			case s.stamp[fi] == s.epoch:
				p = s.bad[fi*w : fi*w+w]
			}
			s.planes = append(s.planes, p)
		}
		g.Type.EvalWords(bad, s.planes)
	}
	return !slices.Equal(bad, good)
}
