package encoder

import (
	"context"

	"repro/internal/cube"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/scan"
)

// standardFillSeed keys the free-variable fill PRNG of every standard
// configuration.
const standardFillSeed = 0xC0FFEE

// StandardConfig assembles the canonical decompressor used throughout the
// paper's experiments: a Fibonacci LFSR of size n with a curated primitive
// polynomial, design variant `variant` of the standard 3-tap phase shifter
// (see phaseshifter.NewSeparated), and `chains` balanced scan chains
// covering `width` scan cells, with window length L. The returned Config
// carries its Tables, built from the rows of the phase shifter's
// separation check. ctx governs that symbolic simulation.
func StandardConfig(ctx context.Context, n, width, chains, L int, variant uint64) (Config, error) {
	tabs, err := standardTables(ctx, n, width, chains, L, variant)
	if err != nil {
		return Config{}, err
	}
	return standardConfig(tabs), nil
}

// standardTables designs the standard decompressor and wraps the phase
// shifter's separation rows as its Tables: one symbolic simulation per
// design.
func standardTables(ctx context.Context, n, width, chains, L int, variant uint64) (*Tables, error) {
	l, err := lfsr.NewStandard(lfsr.Fibonacci, n)
	if err != nil {
		return nil, err
	}
	geo, err := scan.New(width, chains)
	if err != nil {
		return nil, err
	}
	ps, rows, err := phaseshifter.NewSeparated(ctx, l, chains, L*geo.Length, variant)
	if err != nil {
		return nil, err
	}
	return &Tables{l: l, ps: ps, geo: geo, winLen: L, rows: rows}, nil
}

// standardConfig is the canonical Config around standard tables.
func standardConfig(t *Tables) Config {
	return Config{LFSR: t.l, PS: t.ps, Geo: t.geo, WindowLen: t.winLen, FillSeed: standardFillSeed, Tables: t}
}

// EncodeAutoCtx encodes the set with the standard decompressor, retrying
// with successive phase-shifter variants if a cube turns out structurally
// unencodable under the current one. Higher-weight translation-invariant
// phase relations cannot all be designed away (pigeonhole over the LFSR's
// state space), so iterating the shifter design is the standard remedy; a
// handful of variants virtually always suffices. It returns the encoding
// and the variant that worked. workers bounds the encoder's candidate-scan
// parallelism (0 = GOMAXPROCS).
//
// Every variant's tables come from cache, so *repeated* encodes of the
// same (n, width, chains, L) configuration — a session sweep revisiting a
// cell, a benchmark loop — serve every variant they re-try from the cache
// instead of re-simulating. A nil cache stands for a private one that
// lives for this call. The encodings are identical for any cache.
//
// The context (see EncodeCtx) governs the table builds, is checked
// between phase-shifter variants and is threaded into every encode
// attempt; a fired context stops the variant iteration instead of
// masquerading as "unencodable". An uncancelled run is bit-identical for
// any workers value.
func EncodeAutoCtx(ctx context.Context, n, width, chains, L int, set *cube.Set, workers int, cache *TablesCache) (*Encoding, uint64, error) {
	if cache == nil {
		cache = NewTablesCache()
	}
	const maxVariants = 16
	var lastErr error
	for v := uint64(0); v < maxVariants; v++ {
		if err := ctx.Err(); err != nil {
			return nil, v, err
		}
		tabs, err := cache.TablesFor(ctx, n, width, chains, L, v)
		if err != nil {
			return nil, v, err
		}
		cfg := standardConfig(tabs)
		cfg.Workers = workers
		enc, err := EncodeCtx(ctx, cfg, set)
		if err == nil {
			return enc, v, nil
		}
		if ctx.Err() != nil {
			return nil, v, err
		}
		lastErr = err
	}
	return nil, maxVariants, lastErr
}
