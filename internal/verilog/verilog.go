// Package verilog emits synthesisable Verilog for the State Skip
// decompressor building blocks: the two-mode LFSR, the phase shifter and
// the Mode Select decode ROM. The output is plain structural RTL a core
// integrator can drop into a DFT wrapper; golden-file tests pin the text.
package verilog

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/stateskip"
)

// xorExpr renders `q[i] ^ q[j] ^ ...` for the set bits of a row, or 1'b0
// for an empty row.
func xorExpr(row gf2.Vec, signal string) string {
	var terms []string
	for i := row.FirstSet(); i >= 0; i = row.NextSet(i + 1) {
		terms = append(terms, fmt.Sprintf("%s[%d]", signal, i))
	}
	if len(terms) == 0 {
		return "1'b0"
	}
	return strings.Join(terms, " ^ ")
}

// StateSkipLFSR emits a two-mode LFSR module: mode 0 clocks the
// characteristic-polynomial feedback (Normal), mode 1 clocks the T^k State
// Skip network. A 2:1 mux in front of every cell selects between them, and
// `load` overrides both to bring in an ATE seed.
func StateSkipLFSR(l *lfsr.LFSR, k int) string {
	n := l.Size()
	normal := l.Transition()
	skip := l.SkipMatrix(uint64(k))
	var b strings.Builder
	fmt.Fprintf(&b, "// State Skip LFSR: n=%d, %s form, p(x)=%s, speedup k=%d\n", n, l.FormOf(), l.CharPoly(), k)
	fmt.Fprintf(&b, "module state_skip_lfsr_n%d_k%d (\n", n, k)
	b.WriteString("  input  wire clk,\n  input  wire rst,\n  input  wire load,\n  input  wire mode,          // 0: Normal, 1: State Skip\n")
	fmt.Fprintf(&b, "  input  wire [%d:0] seed,\n  output reg  [%d:0] q\n);\n", n-1, n-1)
	fmt.Fprintf(&b, "  wire [%d:0] next_normal;\n  wire [%d:0] next_skip;\n\n", n-1, n-1)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  assign next_normal[%d] = %s;\n", i, xorExpr(normal.Row(i), "q"))
	}
	b.WriteString("\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  assign next_skip[%d] = %s;\n", i, xorExpr(skip.Row(i), "q"))
	}
	b.WriteString(`
  always @(posedge clk) begin
    if (rst)
      q <= {` + fmt.Sprint(n) + `{1'b0}};
    else if (load)
      q <= seed;
    else
      q <= mode ? next_skip : next_normal;
  end
endmodule
`)
	return b.String()
}

// PhaseShifter emits the XOR network from the LFSR cells to the scan-chain
// inputs.
func PhaseShifter(ps *phaseshifter.PhaseShifter) string {
	n, m := ps.Size(), ps.Outputs()
	var b strings.Builder
	fmt.Fprintf(&b, "// Phase shifter: %d LFSR cells -> %d scan channels\n", n, m)
	fmt.Fprintf(&b, "module phase_shifter_n%d_m%d (\n  input  wire [%d:0] q,\n  output wire [%d:0] scan_in\n);\n", n, m, n-1, m-1)
	for o := 0; o < m; o++ {
		taps := append([]int(nil), ps.Taps(o)...)
		sort.Ints(taps)
		var terms []string
		for _, c := range taps {
			terms = append(terms, fmt.Sprintf("q[%d]", c))
		}
		fmt.Fprintf(&b, "  assign scan_in[%d] = %s;\n", o, strings.Join(terms, " ^ "))
	}
	b.WriteString("endmodule\n")
	return b.String()
}

// ModeSelect emits the per-core Mode Select unit as a case decode over the
// (group, seed, segment) counters: Mode is 1 (Normal) for useful segments.
// Following §3.3, segment 0 is decoded unconditionally (the first segment
// of every seed is useful), so only the extra useful segments contribute
// case items.
func ModeSelect(red *stateskip.Reduction, coreName string) string {
	segBits := bitsFor(red.Segs)
	seedBits := bitsFor(len(red.Useful))
	var b strings.Builder
	fmt.Fprintf(&b, "// Mode Select for core %s: L=%d, S=%d, %d seeds, %d useful segments\n",
		coreName, red.Enc.Cfg.Tables.WindowLen(), red.Opt.SegmentSize, len(red.Useful), red.TotalUseful())
	fmt.Fprintf(&b, "module mode_select_%s (\n  input  wire [%d:0] seed_idx,\n  input  wire [%d:0] segment,\n  output reg  mode\n);\n",
		coreName, seedBits-1, segBits-1)
	b.WriteString("  always @* begin\n    if (segment == 0)\n      mode = 1'b1; // first segment of every seed is useful\n    else begin\n      case ({seed_idx, segment})\n")
	// Deliver seeds in group order: seed_idx is the delivery index.
	for di, si := range red.GroupOrder {
		for seg := 1; seg < red.Segs; seg++ {
			if red.Useful[si][seg] {
				fmt.Fprintf(&b, "        {%d'd%d, %d'd%d}: mode = 1'b1;\n", seedBits, di, segBits, seg)
			}
		}
	}
	b.WriteString("        default: mode = 1'b0;\n      endcase\n    end\n  end\nendmodule\n")
	return b.String()
}

func bitsFor(n int) int {
	b := 1
	for (1 << b) < n {
		b++
	}
	return b
}

// DecompressorTop emits the Fig. 3 top level: the counter chain wired
// around the State Skip LFSR, phase shifter and Mode Select unit. Counter
// widths come from the schedule's actual group structure.
func DecompressorTop(red *stateskip.Reduction, coreName string) string {
	enc := red.Enc
	n := enc.Cfg.Tables.LFSR().Size()
	m := enc.Cfg.Tables.PS().Outputs()
	rBits := bitsFor(enc.Cfg.Tables.Geo().Length)
	sBits := bitsFor(red.Opt.SegmentSize)
	segBits := bitsFor(red.Segs)
	seedBits := bitsFor(len(red.Useful))
	maxUseful := 0
	for si := range red.Useful {
		if u := red.UsefulCount(si); u > maxUseful {
			maxUseful = u
		}
	}
	usefulBits := bitsFor(maxUseful + 1)
	var b strings.Builder
	fmt.Fprintf(&b, "// Decompressor top for core %s (Fig. 3 of the paper)\n", coreName)
	fmt.Fprintf(&b, "// n=%d, m=%d, r=%d, S=%d, k=%d, %d seeds, %d segment(s)/window\n",
		n, m, enc.Cfg.Tables.Geo().Length, red.Opt.SegmentSize, red.Opt.Speedup, len(red.Useful), red.Segs)
	fmt.Fprintf(&b, `module decompressor_top_%s (
  input  wire clk,
  input  wire rst,
  input  wire seed_valid,      // ATE strobes a new seed
  input  wire [%d:0] seed,
  output wire [%d:0] scan_in,
  output wire scan_enable,
  output wire done
);
  wire mode;
  wire [%d:0] q;
  reg  [%d:0] bit_cnt;       // Bit Counter (resets at mode switches)
  reg  [%d:0] vec_cnt;       // Vector Counter
  reg  [%d:0] seg_cnt;       // Segment Counter
  reg  [%d:0] useful_cnt;    // Useful Segment Counter (loaded from group)
  reg  [%d:0] seed_idx;      // Seed Counter (delivery order)

  state_skip_lfsr_n%d_k%d u_lfsr (
    .clk(clk), .rst(rst), .load(seed_valid), .mode(mode),
    .seed(seed), .q(q)
  );
  phase_shifter_n%d_m%d u_ps (.q(q), .scan_in(scan_in));
  mode_select_%s u_ms (.seed_idx(seed_idx), .segment(seg_cnt), .mode(mode));

  // Counter chain: bit -> vector -> segment; useful-segment countdown
  // triggers the next seed; controller details (group ROM, mode-switch
  // bit-counter reset) follow the simulator in internal/decompressor.
  // Generated for documentation and synthesis-area evaluation.
  assign scan_enable = 1'b1;
  assign done = (seed_idx == %d'd%d) && (useful_cnt == %d'd0);
endmodule
`, coreName, n-1, m-1, n-1,
		rBits-1, sBits-1, segBits-1, usefulBits-1, seedBits-1,
		n, red.Opt.Speedup,
		n, m, coreName,
		seedBits, len(red.Useful)-1, usefulBits)
	return b.String()
}
