package eval

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/bv"
	"rtlrepair/internal/cirfix"
	"rtlrepair/internal/core"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

// TestRepairEngineOnRandomMutants drives the whole pipeline with
// machine-generated bugs: random single mutations (using the baseline's
// mutation operators as a bug generator) are injected into benchmark
// ground truths; the repair engine must terminate with a classified
// result, and any repair it returns must actually pass the trace.
func TestRepairEngineOnRandomMutants(t *testing.T) {
	gtNames := []string{"counter_k1", "flop_w1", "shift_w2", "fsm_w1", "mux_w2"}
	rng := rand.New(rand.NewSource(123))
	mutants := 0
	repaired := 0
	for _, name := range gtNames {
		b := bench.ByName(name)
		tr, err := b.Trace()
		if err != nil {
			t.Fatal(err)
		}
		gt, err := b.GroundTruthModule()
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 8; trial++ {
			genome := []cirfix.Mutation{{
				Kind:   cirfix.MutKind(rng.Intn(9)),
				Target: rng.Intn(1 << 16),
				Param:  rng.Uint64(),
			}}
			mutant := cirfix.Apply(gt, genome)
			if verilog.Print(mutant) == verilog.Print(gt) {
				continue // mutation was a no-op
			}
			mutants++
			res := core.RepairCtx(context.Background(), mutant, tr, core.Options{
				Policy:  sim.Randomize,
				Seed:    int64(trial + 1),
				Timeout: 20 * time.Second,
			})
			switch res.Status {
			case core.StatusRepaired, core.StatusPreprocessed:
				repaired++
				sys, _, err := synth.Elaborate(smt.NewContext(), res.Repaired, synth.Options{})
				if err != nil {
					t.Fatalf("%s/%d: repaired module does not synthesize: %v\nmutant:\n%s\nrepaired:\n%s",
						name, trial, err, verilog.Print(mutant), verilog.Print(res.Repaired))
				}
				r := sim.RunTrace(sys, tr, sim.RunOptions{Policy: sim.Randomize, Seed: int64(trial + 1)})
				if !r.Passed() {
					t.Fatalf("%s/%d: returned repair fails the trace at %d", name, trial, r.FirstFailure)
				}
			case core.StatusNoRepairNeeded, core.StatusCannotRepair, core.StatusTimeout:
				// legitimate outcomes for arbitrary mutations
			default:
				t.Fatalf("%s/%d: unexpected status %v", name, trial, res.Status)
			}
		}
	}
	if mutants == 0 {
		t.Fatal("no effective mutants generated")
	}
	t.Logf("injected %d mutants, repaired %d", mutants, repaired)
	if repaired == 0 {
		t.Error("engine repaired none of the injected single mutations")
	}
}

// TestRepairIsIdempotent: running the tool on its own output must report
// that no repair is needed.
func TestRepairIsIdempotent(t *testing.T) {
	for _, name := range []string{"counter_k1", "flop_w1", "mux_w2", "sdram_w2", "sha3_s1"} {
		b := bench.ByName(name)
		tr, err := b.Trace()
		if err != nil {
			t.Fatal(err)
		}
		m, _ := b.BuggyModule()
		lib, _ := b.LibModules()
		seed := ChooseSeed(b, 1)
		res := core.RepairCtx(context.Background(), m, tr, core.Options{Policy: sim.Randomize, Seed: seed,
			Timeout: 45 * time.Second, Lib: lib})
		if res.Status != core.StatusRepaired {
			t.Fatalf("%s: status %v (%s)", name, res.Status, res.Reason)
		}
		again := core.RepairCtx(context.Background(), res.Repaired, tr, core.Options{Policy: sim.Randomize, Seed: seed,
			Timeout: 45 * time.Second, Lib: lib})
		if again.Status != core.StatusNoRepairNeeded {
			t.Errorf("%s: second run status %v, want no-repair-needed", name, again.Status)
		}
	}
}

// TestRepairMemoryDesign exercises the repair pipeline end to end on a
// design with a scalarized memory: a register file whose read index has
// an off-by-one error (a Replace Literals class bug).
func TestRepairMemoryDesign(t *testing.T) {
	golden := `
module regfile(input clk, input [1:0] waddr, input we, input [7:0] wdata,
               input [1:0] raddr, output [7:0] rdata);
reg [7:0] mem [0:3];
assign rdata = mem[raddr];
always @(posedge clk) begin
  if (we) mem[waddr] <= wdata;
end
endmodule`
	buggy := strings.Replace(golden, "assign rdata = mem[raddr];",
		"assign rdata = mem[raddr + 2'd1];", 1)

	gm, err := verilog.ParseModule(golden)
	if err != nil {
		t.Fatal(err)
	}
	gsys, _, err := synth.Elaborate(smt.NewContext(), gm, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := []trace.Signal{{Name: "waddr", Width: 2}, {Name: "we", Width: 1},
		{Name: "wdata", Width: 8}, {Name: "raddr", Width: 2}}
	outs := []trace.Signal{{Name: "rdata", Width: 8}}
	var rows [][]bv.XBV
	// Write each slot, then read all back (twice, with varied data).
	for round := 0; round < 2; round++ {
		for a := uint64(0); a < 4; a++ {
			rows = append(rows, []bv.XBV{bv.KU(2, a), bv.KU(1, 1),
				bv.KU(8, 0x10*a+uint64(round)*7+3), bv.KU(2, 0)})
		}
		for a := uint64(0); a < 4; a++ {
			rows = append(rows, []bv.XBV{bv.KU(2, 0), bv.KU(1, 0), bv.KU(8, 0), bv.KU(2, a)})
		}
	}
	cs := sim.NewCycleSim(gsys, sim.KeepX, 0)
	tr := sim.RecordTrace(cs, ins, outs, rows)

	bm, err := verilog.ParseModule(buggy)
	if err != nil {
		t.Fatal(err)
	}
	res := core.RepairCtx(context.Background(), bm, tr, core.Options{Policy: sim.Randomize, Seed: 2, Timeout: 45 * time.Second})
	if res.Status != core.StatusRepaired {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	rsys, _, err := synth.Elaborate(smt.NewContext(), res.Repaired, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := sim.RunTrace(rsys, tr, sim.RunOptions{Policy: sim.Randomize, Seed: 9}); !r.Passed() {
		t.Fatalf("memory repair fails at %d", r.FirstFailure)
	}
	t.Logf("repaired via %s with %d change(s)", res.Template, res.Changes)
}
