package rtlrepair_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/bv"
	"rtlrepair/internal/core"
	"rtlrepair/internal/eval"
	"rtlrepair/internal/sat"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/verilog"
)

// evalOpts are the table-regeneration settings used by the benchmarks:
// a full 60 s RTL-Repair budget and a scaled-down baseline budget
// (the paper gave CirFix 16 hours; relative ordering is what matters).
func evalOpts() eval.Options {
	o := eval.DefaultOptions()
	o.CirFixTimeout = 5 * time.Second
	o.CirFixGenerations = 25
	return o
}

var suiteCache *eval.SuiteResults

func suiteOnce(b *testing.B) *eval.SuiteResults {
	b.Helper()
	if suiteCache == nil {
		suiteCache = eval.RunSuite(evalOpts(), true)
	}
	return suiteCache
}

// BenchmarkTable1 regenerates the performance overview (paper Table 1):
// correct/wrong/cannot counts with median and max runtimes for
// RTL-Repair and the CirFix baseline.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suiteOnce(b)
		t1 := eval.MakeTable1(s)
		if i == 0 {
			b.Logf("\n%s", t1)
		}
	}
}

// BenchmarkTable2 regenerates the OSDD analysis (paper Table 2).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suiteOnce(b)
		rows := eval.MakeTable2(s)
		if i == 0 {
			b.Logf("\n%s", eval.Table2String(rows))
		}
	}
}

// BenchmarkTable3 regenerates the benchmark overview (paper Table 3).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := eval.Table3String()
		if len(out) == 0 {
			b.Fatal("empty table")
		}
		if i == 0 {
			b.Logf("\n%s", out)
		}
	}
}

// BenchmarkTable4 regenerates the repair-correctness evaluation (paper
// Table 4): testbench, gate-level, independent-simulator and extended
// testbench checks for every repair of both tools.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suiteOnce(b)
		rows := eval.MakeTable4(s)
		if i == 0 {
			b.Logf("\n%s", eval.Table4String(rows))
		}
	}
}

// BenchmarkTable5 regenerates the repair-speed evaluation (paper Table
// 5): per-template results without early exit, the basic-synthesizer
// ablation of adaptive windowing, and speedups over the baseline.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suiteOnce(b)
		rows := eval.MakeTable5(s, evalOpts())
		if i == 0 {
			b.Logf("\n%s", eval.Table5String(rows))
		}
	}
}

// BenchmarkTable6 regenerates the open-source bug evaluation (paper
// Table 6) with the windowed synthesizer and a 2-minute timeout.
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := eval.MakeTable6(evalOpts())
		if i == 0 {
			b.Logf("\n%s", eval.Table6String(rows))
		}
	}
}

// BenchmarkFigure2CounterRepair measures the end-to-end repair of the
// paper's running example (Figures 1/2).
func BenchmarkFigure2CounterRepair(b *testing.B) {
	bm := bench.ByName("counter_k1")
	tr, err := bm.Trace()
	if err != nil {
		b.Fatal(err)
	}
	src := bm.Buggy
	for i := 0; i < b.N; i++ {
		m, err := verilog.ParseModule(src)
		if err != nil {
			b.Fatal(err)
		}
		res := core.RepairCtx(context.Background(), m, tr, core.Options{Policy: sim.Randomize, Seed: 1, Timeout: 30 * time.Second})
		if res.Status != core.StatusRepaired {
			b.Fatalf("status = %v", res.Status)
		}
	}
}

// BenchmarkFigure8Diffs produces the qualitative repair diffs of
// Figure 8.
func BenchmarkFigure8Diffs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := eval.QualitativeDiffs([]string{"decoder_w1", "counter_w1", "sha3_s1", "sdram_w1"}, evalOpts())
		if !strings.Contains(out, "decoder_w1") {
			b.Fatal("missing diff output")
		}
		if i == 0 {
			b.Logf("\n%s", out)
		}
	}
}

// BenchmarkFigure9Diffs produces the qualitative repair diffs of
// Figure 9 (open-source bugs).
func BenchmarkFigure9Diffs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := eval.QualitativeDiffs([]string{"C1", "D8", "D11", "D12", "S1.R"}, evalOpts())
		if !strings.Contains(out, "C1") {
			b.Fatal("missing diff output")
		}
		if i == 0 {
			b.Logf("\n%s", out)
		}
	}
}

// ---- component micro-benchmarks (substrate performance) ----

// BenchmarkElaborateCounter measures Verilog → transition-system
// elaboration.
func BenchmarkElaborateCounter(b *testing.B) {
	bm := bench.ByName("counter_k1")
	m, err := verilog.ParseModule(bm.GroundTruth)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := synth.Elaborate(smt.NewContext(), m, synth.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCycleSim measures the cycle simulator on the sha3-lite core.
func BenchmarkCycleSim(b *testing.B) {
	bm := bench.ByName("sha3_s1")
	sys, err := bm.GroundTruthSystem()
	if err != nil {
		b.Fatal(err)
	}
	tr, err := bm.Trace()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.RunTrace(sys, tr, sim.RunOptions{Policy: sim.Zero})
		if !res.Passed() {
			b.Fatal("ground truth failed")
		}
	}
}

// BenchmarkEventSim measures the event-driven simulator on the fsm.
func BenchmarkEventSim(b *testing.B) {
	bm := bench.ByName("fsm_w1")
	m, err := bm.GroundTruthModule()
	if err != nil {
		b.Fatal(err)
	}
	tr, err := bm.Trace()
	if err != nil {
		b.Fatal(err)
	}
	es, err := sim.NewEventSim(m, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.RunEventTrace(es, tr, sim.RunOptions{Policy: sim.Zero})
		if !res.Passed() {
			b.Fatal("ground truth failed event sim")
		}
	}
}

// BenchmarkSATSolver measures the CDCL core on a pigeonhole instance.
func BenchmarkSATSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.New()
		const pigeons, holes = 7, 6
		vars := make([][]int, pigeons)
		for p := range vars {
			vars[p] = make([]int, holes)
			for h := range vars[p] {
				vars[p][h] = s.NewVar()
			}
		}
		for p := 0; p < pigeons; p++ {
			lits := make([]sat.Lit, holes)
			for h := 0; h < holes; h++ {
				lits[h] = sat.PosLit(vars[p][h])
			}
			s.AddClause(lits...)
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 < pigeons; p1++ {
				for p2 := p1 + 1; p2 < pigeons; p2++ {
					s.AddClause(sat.NegLit(vars[p1][h]), sat.NegLit(vars[p2][h]))
				}
			}
		}
		st, err := s.Solve()
		if err != nil || st != sat.Unsat {
			b.Fatalf("php = %v %v", st, err)
		}
	}
}

// BenchmarkSMTBitblast measures bit-blasting plus solving of a 32-bit
// multiplication equation.
func BenchmarkSMTBitblast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := smt.NewContext()
		s := smt.NewSolver(ctx)
		x := ctx.Var("x", 32)
		s.Assert(ctx.Eq(ctx.Mul(x, ctx.ConstU(32, 3)), ctx.ConstU(32, 0x99)))
		if st, err := s.Check(); err != nil || st != sat.Sat {
			b.Fatalf("%v %v", st, err)
		}
		if got := s.Value(x).Mul(bv.New(32, 3)); got.Uint64() != 0x99 {
			b.Fatalf("model wrong: %v", got)
		}
	}
}

// ---- ablation benches for the design choices DESIGN.md calls out ----

// BenchmarkAblationNoPreprocessing disables the static-analysis
// preprocessing (§4.1): the five benchmarks the paper fixes by
// preprocessing alone must stop being repairable that way.
func BenchmarkAblationNoPreprocessing(b *testing.B) {
	names := []string{"fsm_s2", "fsm_w2", "fsm_s1", "shift_w1", "sdram_k2"}
	for i := 0; i < b.N; i++ {
		withPrep, withoutPrep := 0, 0
		for _, name := range names {
			bm := bench.ByName(name)
			tr, err := bm.Trace()
			if err != nil {
				b.Fatal(err)
			}
			m, _ := bm.BuggyModule()
			lib, _ := bm.LibModules()
			r1 := core.RepairCtx(context.Background(), m, tr, core.Options{Policy: sim.Randomize, Seed: 1,
				Timeout: 30 * time.Second, Lib: lib})
			if r1.Status == core.StatusPreprocessed {
				withPrep++
			}
			m2, _ := bm.BuggyModule()
			r2 := core.RepairCtx(context.Background(), m2, tr, core.Options{Policy: sim.Randomize, Seed: 1,
				Timeout: 30 * time.Second, Lib: lib, NoPreprocess: true})
			if r2.Status == core.StatusRepaired || r2.Status == core.StatusPreprocessed {
				withoutPrep++
			}
		}
		if i == 0 {
			b.Logf("repaired by preprocessing: %d/5; still repaired without preprocessing: %d/5",
				withPrep, withoutPrep)
		}
		if withPrep < 4 {
			b.Fatalf("preprocessing fixed only %d/5", withPrep)
		}
	}
}

// BenchmarkAblationNoMinimize disables the minimal-change search (§4.3):
// the first satisfying assignment is used. On decoder_w1 the minimal
// repair uses 2 changes; without minimization the solver typically
// enables more, changing untested functionality (the decoder_w1 story
// of Figure 8).
func BenchmarkAblationNoMinimize(b *testing.B) {
	bm := bench.ByName("decoder_w1")
	tr, err := bm.Trace()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		m1, _ := bm.BuggyModule()
		min := core.RepairCtx(context.Background(), m1, tr, core.Options{Policy: sim.Randomize, Seed: 1, Timeout: 30 * time.Second})
		m2, _ := bm.BuggyModule()
		noMin := core.RepairCtx(context.Background(), m2, tr, core.Options{Policy: sim.Randomize, Seed: 1,
			Timeout: 30 * time.Second, NoMinimize: true})
		if i == 0 {
			b.Logf("minimized: %d changes; unminimized: %d changes", min.Changes, noMin.Changes)
		}
		if min.Status != core.StatusRepaired {
			b.Fatalf("minimized repair failed: %v", min.Status)
		}
		if noMin.Status == core.StatusRepaired && noMin.Changes < min.Changes {
			b.Fatalf("unminimized repair smaller than minimized (%d < %d)", noMin.Changes, min.Changes)
		}
	}
}
