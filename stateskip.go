// Package stateskiplfsr is the public facade of this repository: a Go
// reproduction of "State Skip LFSRs: Bridging the Gap between Test Data
// Compression and Test Set Embedding for IP Cores" (Tenentes, Kavousianos,
// Kalligeros — DATE 2008).
//
// The quick path from a pre-computed test set to a shortened test schedule:
//
//	set, _ := stateskiplfsr.ReadCubes(f)                 // or a benchprofile workload
//	enc, _, _ := stateskiplfsr.EncodeAuto(n, set.Width, 32, 200, set)
//	red, _ := stateskiplfsr.Reduce(enc, stateskiplfsr.ReduceOptions(10, 10))
//	fmt.Println(red.TSL(), red.Improvement())
//
// The packages under internal/ carry the implementation: gf2 (linear
// algebra), lfsr (registers + State Skip matrices), phaseshifter, scan,
// cube, encoder (window-based reseeding), stateskip (useful-segment
// selection), decompressor (the Fig. 3 architecture), hwcost, verilog,
// netlist/faultsim/atpg (the Atalanta-substitute ATPG flow), benchprofile
// (calibrated workloads), litdata and experiments (the paper's tables and
// figures). This file re-exports the surface a downstream user needs.
package stateskiplfsr

import (
	"context"
	"io"

	"repro/internal/cube"
	"repro/internal/decompressor"
	"repro/internal/encoder"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/stateskip"
)

// Core types, re-exported.
type (
	// Cube is a test vector over {0, 1, X}.
	Cube = cube.Cube
	// CubeSet is an ordered set of equal-width test cubes.
	CubeSet = cube.Set
	// LFSR is a linear feedback shift register with State Skip support.
	LFSR = lfsr.LFSR
	// PhaseShifter spreads LFSR cells onto scan chains.
	PhaseShifter = phaseshifter.PhaseShifter
	// EncoderConfig configures window-based reseeding.
	EncoderConfig = encoder.Config
	// EncoderTables are the shared symbolic tables of one decompressor,
	// reusable across encodings via EncoderConfig.Tables.
	EncoderTables = encoder.Tables
	// Encoding is a computed set of seeds.
	Encoding = encoder.Encoding
	// Reduction is the outcome of State Skip useful-segment selection.
	Reduction = stateskip.Reduction
	// Schedule programs the Fig. 3 decompression architecture.
	Schedule = decompressor.Schedule
)

// ReadCubes parses a test set in the simple "width W" + 0/1/x-lines format.
func ReadCubes(r io.Reader) (*CubeSet, error) { return cube.Read(r) }

// ParseCube parses a single 0/1/x cube literal.
func ParseCube(s string) (Cube, error) { return cube.Parse(s) }

// NewLFSR builds an LFSR of the given size from the curated primitive
// polynomial table (Fibonacci form).
func NewLFSR(size int) (*LFSR, error) { return lfsr.NewStandard(lfsr.Fibonacci, size) }

// EncodeAuto compresses a cube set with the standard decompressor (LFSR
// size n, the given scan-chain count, window length L), retrying
// phase-shifter design variants when the test set is structurally
// unencodable under one (see phaseshifter.NewSeparated). It returns the
// encoding and the variant used.
func EncodeAuto(n, width, chains, L int, set *CubeSet) (*Encoding, uint64, error) {
	return encoder.EncodeAutoCtx(context.Background(), n, width, chains, L, set, 0, nil)
}

// ReduceOptions returns the standard State Skip options for segment size S
// and speedup factor k.
func ReduceOptions(s, k int) stateskip.Options { return stateskip.DefaultOptions(s, k) }

// Reduce shortens an encoding's test sequence with a State Skip LFSR:
// fortuitous-embedding analysis, useful-segment selection, seed grouping.
func Reduce(enc *Encoding, opt stateskip.Options) (*Reduction, error) {
	return stateskip.Reduce(enc, opt)
}

// NewSchedule programs the decompression architecture of the paper's
// Fig. 3 for one reduced encoding.
func NewSchedule(red *Reduction) *Schedule { return decompressor.NewSchedule(red) }
