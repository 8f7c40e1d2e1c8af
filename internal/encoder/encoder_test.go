package encoder

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/benchprofile"
	"repro/internal/cube"
	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/prng"
	"repro/internal/scan"
)

func smallConfig(t testing.TB, n, width, chains, L int) Config {
	t.Helper()
	cfg, err := StandardConfig(context.Background(), n, width, chains, L, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestTableMatchesGeneration pins the symbolic expression table to the
// concrete window generator: for random seeds, evaluating each table
// expression at the seed must equal the generated stimulus bit. Everything
// else in the repository rests on this equality. Both table sources are
// checked: the standard tables built from the phase shifter's separation
// rows, and NewTables' own simulation of the same decompressor and of a
// hand-built Galois one.
func TestTableMatchesGeneration(t *testing.T) {
	std := smallConfig(t, 16, 50, 4, 6).Tables
	rebuilt, err := NewTables(context.Background(), std.LFSR(), std.PS(), std.Geo(), std.WindowLen())
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []*Tables{std, rebuilt} {
		checkTableMatchesGeneration(t, table)
	}

	// A hand-built Galois decompressor: the register forms step their
	// symbolic state differently.
	taps, ok := lfsr.Taps(18)
	if !ok {
		t.Fatal("no curated taps for n=18")
	}
	galois, err := lfsr.NewFromTaps(lfsr.Galois, 18, taps)
	if err != nil {
		t.Fatal(err)
	}
	geo, err := scan.New(60, 6)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := phaseshifter.New(18, [][]int{{0, 5, 11}, {1, 7, 13}, {2, 9, 15}, {3, 6, 17}, {4, 10, 14}, {8, 12, 16}})
	if err != nil {
		t.Fatal(err)
	}
	gtab, err := NewTables(context.Background(), galois, ps, geo, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkTableMatchesGeneration(t, gtab)
}

// checkTableMatchesGeneration compares every expression of table with the
// concrete window of its own decompressor for random seeds, as generated
// both by the bit-serial oracle and by the bit-sliced kernel (all seeds in
// one pass, one lane each).
func checkTableMatchesGeneration(t *testing.T, table *Tables) {
	t.Helper()
	src := prng.New(99)
	n := table.LFSR().Size()
	L, width := table.WindowLen(), table.Geo().Width
	seeds := make([]Seed, 10)
	for trial := range seeds {
		seed := gf2.NewVec(n)
		for i := 0; i < n; i++ {
			seed.SetBit(i, src.Bit())
		}
		seeds[trial].Value = seed
	}
	kn := NewKernel(table.LFSR(), table.PS(), table.Geo())
	kn.Load(seeds)
	planes := make([]uint64, L*width)
	kn.Window(planes, L)
	for trial, s := range seeds {
		window := generateWindow(table.LFSR(), table.PS(), table.Geo(), s.Value, L)
		for v := 0; v < L; v++ {
			for pos := 0; pos < width; pos++ {
				want := window[v].Bit(pos)
				got := table.Expr(v, pos).Dot(s.Value)
				if got != want {
					t.Fatalf("trial %d: vector %d pos %d: table says %d, generator says %d", trial, v, pos, got, want)
				}
				if k := uint8(planes[v*width+pos] >> trial & 1); k != want {
					t.Fatalf("trial %d: vector %d pos %d: kernel says %d, generator says %d", trial, v, pos, k, want)
				}
			}
		}
	}
}

func genSet(t testing.TB, name string, scaleCubes int) *cube.Set {
	t.Helper()
	p, err := benchprofile.ByName(name, benchprofile.ScaleCI)
	if err != nil {
		t.Fatal(err)
	}
	if scaleCubes > 0 {
		p.NumCubes = scaleCubes
	}
	return p.Generate()
}

func TestEncodeRoundTrip(t *testing.T) {
	set := genSet(t, "s13207", 40)
	cfg := smallConfig(t, 16, set.Width, 8, 12)
	enc, err := EncodeCtx(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Verify(); err != nil {
		t.Fatal(err)
	}
	if enc.TDV() != len(enc.Seeds)*16 {
		t.Errorf("TDV = %d", enc.TDV())
	}
	if enc.TSL() != len(enc.Seeds)*12 {
		t.Errorf("TSL = %d", enc.TSL())
	}
	if len(enc.Seeds) == 0 || len(enc.Seeds) > set.Len() {
		t.Errorf("suspicious seed count %d for %d cubes", len(enc.Seeds), set.Len())
	}
}

func TestClassicalReseedingL1(t *testing.T) {
	set := genSet(t, "s9234", 30)
	cfg := smallConfig(t, 24, set.Width, 8, 1)
	enc, err := EncodeCtx(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Verify(); err != nil {
		t.Fatal(err)
	}
	for si, s := range enc.Seeds {
		for _, a := range s.Assignments {
			if a.Pos != 0 {
				t.Errorf("seed %d: L=1 assignment at pos %d", si, a.Pos)
			}
		}
	}
}

func TestWindowEncodingNeedsFewerSeeds(t *testing.T) {
	// The motivation experiment of the paper's Table 1: larger L ⇒ fewer
	// seeds (lower TDV) at the cost of a longer sequence.
	set := genSet(t, "s13207", 60)
	var prevSeeds int
	for i, L := range []int{1, 8, 32} {
		cfg := smallConfig(t, 16, set.Width, 8, L)
		enc, err := EncodeCtx(context.Background(), cfg, set)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && len(enc.Seeds) > prevSeeds {
			t.Errorf("L=%d needs %d seeds, more than previous %d", L, len(enc.Seeds), prevSeeds)
		}
		prevSeeds = len(enc.Seeds)
	}
}

// assertEncodingsIdentical compares two encodings bit for bit: seed values,
// every assignment, and the consistency-check count.
func assertEncodingsIdentical(t *testing.T, label string, a, b *Encoding) {
	t.Helper()
	if len(a.Seeds) != len(b.Seeds) {
		t.Fatalf("%s: seed count %d vs %d", label, len(a.Seeds), len(b.Seeds))
	}
	for i := range a.Seeds {
		if !a.Seeds[i].Value.Equal(b.Seeds[i].Value) {
			t.Fatalf("%s: seed %d value differs", label, i)
		}
		if len(a.Seeds[i].Assignments) != len(b.Seeds[i].Assignments) {
			t.Fatalf("%s: seed %d assignment count differs", label, i)
		}
		for j := range a.Seeds[i].Assignments {
			if a.Seeds[i].Assignments[j] != b.Seeds[i].Assignments[j] {
				t.Fatalf("%s: seed %d assignment %d differs", label, i, j)
			}
		}
	}
	if a.ChecksPerformed != b.ChecksPerformed {
		t.Fatalf("%s: checks %d vs %d", label, a.ChecksPerformed, b.ChecksPerformed)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	set := genSet(t, "s15850", 30)
	cfg := smallConfig(t, 20, set.Width, 8, 10)
	a, err := EncodeCtx(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeCtx(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	assertEncodingsIdentical(t, "rerun", a, b)
}

// TestEncodeWorkersBitIdentical asserts the candidate scan's determinism
// contract: seeds, assignments and even the number of consistency checks
// are identical for any Workers value (the scan fans out over per-worker
// reduced views, but every (cube, position) verdict is value-deterministic
// and the tie-breaks are index-addressed).
func TestEncodeWorkersBitIdentical(t *testing.T) {
	set := genSet(t, "s38417", 0)
	cfg := smallConfig(t, 32, set.Width, 8, 12)
	cfg.Workers = 1
	want, err := EncodeCtx(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 0} {
		cfg.Workers = workers
		got, err := EncodeCtx(context.Background(), cfg, set)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertEncodingsIdentical(t, fmt.Sprintf("workers=%d", workers), want, got)
	}
}

// TestEncodeGolden locks the exact encoder output (seed bits, assignments,
// check counts, phase-shifter variant) to recorded values. The CI-scale rows
// were recorded from the naive per-check Gaussian re-elimination
// implementation; the paper-scale rows (embed_paper's two cells and one
// s38417 cell on the two-word register path) from the lazily reduced
// per-worker tables that preceded the shared Four-Russians reducer. Paper
// rows run at Workers 1 and 2; CI rows at GOMAXPROCS. Any optimisation must
// keep these hashes.
func TestEncodeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, g := range encodeGoldens {
		g := g
		name := fmt.Sprintf("%s_L%d", g.circuit, g.L)
		workers := []int{0}
		if g.scale == benchprofile.ScalePaper {
			workers = []int{1, 2}
		}
		for _, w := range workers {
			w := w
			label := name
			if g.scale == benchprofile.ScalePaper {
				label = fmt.Sprintf("paper_%s_w%d", name, w)
			}
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				g.check(t, w)
			})
		}
	}
}

// encodeGolden is one recorded EncodeAutoCtx result.
type encodeGolden struct {
	scale   benchprofile.Scale
	circuit string
	L       int
	seeds   int
	variant uint64
	checks  int64
	sha     string
}

var encodeGoldens = func() []encodeGolden {
	ci, paper := benchprofile.ScaleCI, benchprofile.ScalePaper
	return []encodeGolden{
		{ci, "s9234", 1, 17, 0, 422, "3bee2f1a5a219130"},
		{ci, "s9234", 8, 12, 0, 2241, "1debcd69beb33f9e"},
		{ci, "s13207", 12, 8, 0, 2655, "12117b5814d3a21f"},
		{ci, "s15850", 10, 10, 0, 2419, "2673aac6a4874203"},
		{ci, "s38417", 16, 28, 0, 18955, "6525763250d6d42c"},
		{ci, "s38584", 24, 10, 1, 6787, "fa5ecc7a39d98366"},
		{paper, "s9234", 200, 183, 1, 7323806, "66d1584018a59544"},
		{paper, "s15850", 200, 195, 0, 10769251, "e489b38a29447733"},
		{paper, "s38417", 2, 659, 0, 799170, "5eecaac3cf473f77"},
	}
}()

// check encodes the golden's cube set with the given worker count, asserts
// that the result matches the record and returns it.
func (g encodeGolden) check(t *testing.T, workers int) *Encoding {
	t.Helper()
	p, err := benchprofile.ByName(g.circuit, g.scale)
	if err != nil {
		t.Fatal(err)
	}
	set := p.Generate()
	enc, variant, err := EncodeAutoCtx(context.Background(), p.LFSRSize, p.Width, p.Chains, g.L, set, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	sha := encodingSHA(enc)
	if len(enc.Seeds) != g.seeds || variant != g.variant || enc.ChecksPerformed != g.checks || sha != g.sha {
		t.Fatalf("golden mismatch: seeds=%d variant=%d checks=%d sha=%s, want seeds=%d variant=%d checks=%d sha=%s",
			len(enc.Seeds), variant, enc.ChecksPerformed, sha, g.seeds, g.variant, g.checks, g.sha)
	}
	return enc
}

// TestFullRankVerdict drives a seed's basis to rank n on a CI-scale cube
// set and asserts that the window-bit verdict the scan then uses agrees
// with Solver.Check for every (cube, position) pair. It also pins an
// encode whose seeds reach full rank mid-construction (so later scans ran
// on window bits) to its golden record.
func TestFullRankVerdict(t *testing.T) {
	set := genSet(t, "s9234", 0)
	cfg := smallConfig(t, 24, set.Width, 8, 8)
	st := newEncodeState(context.Background(), cfg, set, cfg.Tables.Systems(set))
	st.basisChanged()
	rows := cfg.Tables.Rows()
	src := prng.New(5)
	hidden := gf2.NewVec(st.n)
	for i := 0; i < st.n; i++ {
		hidden.SetBit(i, src.Bit())
	}
	for st.solver.Rank() < st.n {
		row := rows.Row(src.Intn(rows.Count()))
		st.solver.Add(gf2.Equation{Coeffs: row, RHS: row.Dot(hidden)})
		st.basisChanged()
	}
	if !st.full {
		t.Fatal("rank n reached but the scan did not switch to window bits")
	}
	var sc gf2.CheckScratch
	var eqs []gf2.Equation
	consistent := 0
	for ci, c := range set.Cubes {
		for p := 0; p < st.L; p++ {
			gotInc, gotOK := st.check(&st.views[0], st.sys.base[ci], int32(p)*st.stride, st.sys.rhs[ci])
			eqs = cfg.Tables.Equations(c, p, eqs[:0])
			wantInc, wantOK := st.solver.Check(eqs, &sc)
			if gotInc != wantInc || gotOK != wantOK {
				t.Fatalf("cube %d pos %d: window bits say (%d,%v), Check says (%d,%v)", ci, p, gotInc, gotOK, wantInc, wantOK)
			}
			if gotOK {
				consistent++
			}
		}
	}
	if consistent == 0 {
		t.Error("no (cube, position) pair fits the seed; the comparison covered rejections only")
	}

	for _, g := range encodeGoldens {
		if g.scale != benchprofile.ScaleCI || g.circuit != "s9234" || g.L != 8 {
			continue
		}
		enc := g.check(t, 1)
		if fullRankSeeds(enc) == 0 {
			t.Fatalf("no seed of %s L=%d reached full rank before its last commit", g.circuit, g.L)
		}
		return
	}
	t.Fatal("golden s9234 L=8 not found")
}

// fullRankSeeds replays each seed's commits and counts the seeds whose
// basis reached rank n before their last commit, so that at least one
// scan of theirs ran on window bits.
func fullRankSeeds(enc *Encoding) int {
	tabs := enc.Cfg.Tables
	n := tabs.LFSR().Size()
	full := 0
	for _, s := range enc.Seeds {
		solver := gf2.NewSolver(n)
		for _, a := range s.Assignments[:len(s.Assignments)-1] {
			solver.AddSystem(tabs.Equations(enc.Set.Cubes[a.Cube], a.Pos, nil))
			if solver.Rank() == n {
				full++
				break
			}
		}
	}
	return full
}

// encodingSHA hashes an encoding's seed bits and assignments: the first 8
// bytes of SHA-256, hex.
func encodingSHA(enc *Encoding) string {
	h := sha256.New()
	for _, s := range enc.Seeds {
		fmt.Fprintf(h, "%s\n", s.Value.String())
		for _, a := range s.Assignments {
			fmt.Fprintf(h, "%d@%d ", a.Cube, a.Pos)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestEncodeSharedTablesIdentical runs the same encoding with the standard
// tables (built from the phase shifter's separation rows), with private
// tables that NewTables simulates afresh for the same decompressor, and
// through the TablesCache path; all must agree bit for bit, and a re-encode
// over the same tables must report ~zero table-build time.
func TestEncodeSharedTablesIdentical(t *testing.T) {
	set := genSet(t, "s13207", 40)
	cfg := smallConfig(t, 16, set.Width, 8, 12)
	want, err := EncodeCtx(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	std := cfg.Tables
	tabs, err := NewTables(context.Background(), std.LFSR(), std.PS(), std.Geo(), std.WindowLen())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tables = tabs
	first, err := EncodeCtx(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	assertEncodingsIdentical(t, "private tables", want, first)
	again, err := EncodeCtx(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	assertEncodingsIdentical(t, "private tables reuse", want, again)
	// The reuse path hits the cached equation index; a generous absolute
	// cap keeps the assertion meaningful without racing the scheduler.
	if again.TableBuildTime > 100*time.Millisecond {
		t.Errorf("reused tables reported %v build time", again.TableBuildTime)
	}

	cache := NewTablesCache()
	a, va, err := EncodeAutoCtx(context.Background(), 16, set.Width, 8, 12, set, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	b, vb, err := EncodeAutoCtx(context.Background(), 16, set.Width, 8, 12, set, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if va != vb {
		t.Fatalf("cached variant %d != uncached %d", va, vb)
	}
	assertEncodingsIdentical(t, "cache vs fresh", b, a)
}

func TestPruningAblationIdentical(t *testing.T) {
	// Monotone feasibility pruning must not change the result, only the
	// number of consistency checks performed.
	set := genSet(t, "s9234", 25)
	cfg := smallConfig(t, 24, set.Width, 8, 8)
	pruned, err := EncodeCtx(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoPruning = true
	full, err := EncodeCtx(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Seeds) != len(full.Seeds) {
		t.Fatalf("pruning changed seed count: %d vs %d", len(pruned.Seeds), len(full.Seeds))
	}
	for i := range pruned.Seeds {
		if !pruned.Seeds[i].Value.Equal(full.Seeds[i].Value) {
			t.Fatalf("pruning changed seed %d", i)
		}
	}
	if pruned.ChecksPerformed > full.ChecksPerformed {
		t.Errorf("pruning performed more checks (%d) than full scan (%d)", pruned.ChecksPerformed, full.ChecksPerformed)
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	set := genSet(t, "s9234", 10)
	if _, err := EncodeCtx(context.Background(), Config{}, set); err == nil {
		t.Error("nil Tables accepted")
	}
	cfg := smallConfig(t, 24, set.Width+10, 8, 4)
	if _, err := EncodeCtx(context.Background(), cfg, set); err == nil {
		t.Error("width mismatch accepted")
	}
	cfg = smallConfig(t, 24, set.Width, 8, 4)
	if _, err := EncodeCtx(context.Background(), cfg, cube.NewSet(set.Width)); err == nil {
		t.Error("empty set accepted")
	}
}

func TestEncodeFailsWhenLFSRTooSmall(t *testing.T) {
	// A cube with more specified bits than a tiny LFSR can ever satisfy at
	// any position should produce a clear error, not loop forever.
	set := cube.NewSet(64)
	dense := cube.New(64)
	for i := 0; i < 64; i++ {
		dense.Set(i, uint8(i%2))
	}
	set.Add(dense)
	cfg := smallConfig(t, 12, 64, 4, 2)
	if _, err := EncodeCtx(context.Background(), cfg, set); err == nil {
		t.Error("expected failure for oversized cube, got success")
	}
}

func TestAllCIProfilesEncodable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range benchprofile.All(benchprofile.ScaleCI) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			set := p.Generate()
			cfg := smallConfig(t, p.LFSRSize, p.Width, p.Chains, 16)
			enc, err := EncodeCtx(context.Background(), cfg, set)
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
