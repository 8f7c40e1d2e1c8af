// Package frozen seeds violations and clean cases for the frozentables
// analyzer.
package frozen

import "sync"

// Tables mimics a shared immutable artefact with one allow-listed
// mutator and one mutex-guarded cache field (lockcheck's domain).
//
// lint:frozen allow=refill
type Tables struct {
	order []int
	arena []uint64
	n     int

	mu   sync.Mutex
	hits int // guarded by mu
}

// Scratch is not frozen: writes anywhere are fine.
type Scratch struct {
	vals []int
}

func NewTables(n int) *Tables {
	t := &Tables{n: n}
	t.order = make([]int, n) // clean: builder
	for i := range t.order {
		t.order[i] = i // clean: builder
	}
	return t
}

func (t *Tables) extendArena(n int) {
	t.arena = append(t.arena, make([]uint64, n)...) // clean: extend* builder
}

func (t *Tables) refill() {
	t.arena = nil // clean: allow=refill
}

func (t *Tables) Mutate(i int) {
	t.order[i] = 0 // want `write to frozen field Tables.order`
	t.arena = nil  // want `write to frozen field Tables.arena`
	t.n++          // want `write to frozen field Tables.n`
}

func Scrub(t *Tables, src []uint64) {
	copy(t.arena, src) // want `copy into frozen field Tables.arena`
	copy(src, t.arena) // clean: frozen field as source
}

func (t *Tables) Hit() {
	t.mu.Lock()
	t.hits++ // clean for frozentables: guarded fields belong to lockcheck
	t.mu.Unlock()
}

func (s *Scratch) Reset() {
	s.vals = s.vals[:0] // clean: type not frozen
}

// Pair is a generic frozen table.
//
// lint:frozen
type Pair[T any] struct {
	a, b T
}

func NewPair[T any](a, b T) *Pair[T] {
	p := &Pair[T]{}
	p.a, p.b = a, b // clean: constructor
	return p
}

func (p *Pair[T]) SetA(v T) {
	p.a = v // want `write to frozen field Pair.a`
}
