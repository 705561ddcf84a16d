package rtlrepair_test

import (
	"context"
	"testing"
	"time"

	"rtlrepair/internal/analysis"
	"rtlrepair/internal/bench"
	"rtlrepair/internal/core"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/verilog"
)

// TestAnalysisCleanOnGroundTruths pins the static-analysis baseline: every
// correct (non-mutated) benchmark design must produce zero error-severity
// diagnostics — an error means the design would not elaborate, and all
// ground truths do. The warning count is pinned at zero too, so any new
// lint pass that starts flagging correct designs fails loudly here rather
// than silently degrading fault localization.
func TestAnalysisCleanOnGroundTruths(t *testing.T) {
	for _, b := range bench.Registry() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			m, err := b.GroundTruthModule()
			if err != nil {
				t.Fatalf("ground truth: %v", err)
			}
			lib, err := b.LibModules()
			if err != nil {
				t.Fatalf("lib: %v", err)
			}
			report := analysis.Analyze(m, analysis.Options{Lib: lib})
			if n := report.Count(analysis.SevError); n != 0 {
				t.Errorf("ground truth has %d error diagnostics:\n%s", n, reportString(report, analysis.SevError))
			}
			if n := report.Count(analysis.SevWarning); n != 0 {
				t.Errorf("ground truth has %d warning diagnostics:\n%s", n, reportString(report, analysis.SevWarning))
			}
		})
	}
}

func reportString(r *analysis.Report, sev analysis.Severity) string {
	out := ""
	for _, d := range r.Diagnostics {
		if d.Severity == sev {
			out += "  " + d.String() + "\n"
		}
	}
	return out
}

// TestAnalysisFlagsSeededDefects pins that the engine reports
// error-severity diagnostics on designs with elaboration-fatal defects:
// a multiply-driven signal and a combinational loop.
func TestAnalysisFlagsSeededDefects(t *testing.T) {
	cases := []struct {
		name string
		src  string
		rule string
	}{
		{
			name: "multi-driven",
			rule: analysis.RuleMultiDriven,
			src: `module top(input a, input b, output wire y);
  assign y = a;
  assign y = b;
endmodule`,
		},
		{
			name: "comb-loop",
			rule: analysis.RuleCombLoop,
			src: `module top(input a, output wire y);
  wire p, q;
  assign p = q ^ a;
  assign q = p;
  assign y = p;
endmodule`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mods, err := verilog.Parse(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			report := analysis.Analyze(mods[len(mods)-1], analysis.Options{})
			if report.Count(analysis.SevError) < 1 {
				t.Fatalf("want >=1 error diagnostic, got none")
			}
			found := false
			for _, d := range report.Diagnostics {
				if d.Rule == tc.rule && d.Severity == analysis.SevError {
					found = true
				}
			}
			if !found {
				t.Fatalf("no %s error reported; got:\n%s", tc.rule, reportString(report, analysis.SevError))
			}
		})
	}
}

// TestLocalizationPrunesSites checks that trace-driven fault localization
// measurably reduces the number of template instrumentation sites on
// CirFix benchmarks while leaving the repair result unchanged. The two
// designs below have multiple outputs of which only some fail, so the
// cone of influence excludes part of the logic.
func TestLocalizationPrunesSites(t *testing.T) {
	if testing.Short() {
		t.Skip("repair runs are slow")
	}
	pruned := 0
	for _, name := range []string{"counter_w2", "sdram_w2"} {
		t.Run(name, func(t *testing.T) {
			b := bench.ByName(name)
			if b == nil {
				t.Fatalf("unknown benchmark %s", name)
			}
			if b.Suite != "cirfix" {
				t.Fatalf("%s is not a CirFix benchmark", name)
			}
			tr, err := b.Trace()
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			lib, err := b.LibModules()
			if err != nil {
				t.Fatalf("lib: %v", err)
			}
			run := func(noLocalize bool) *core.Result {
				m, err := b.BuggyModule()
				if err != nil {
					t.Fatalf("buggy module: %v", err)
				}
				return core.RepairCtx(context.Background(), m, tr, core.Options{
					Policy: sim.Randomize, Seed: 1,
					Timeout: 60 * time.Second, Lib: lib, NoLocalize: noLocalize,
				})
			}
			loc, noloc := run(false), run(true)

			// Repair result must be unchanged by pruning.
			if loc.Status != noloc.Status || loc.Template != noloc.Template || loc.Changes != noloc.Changes {
				t.Fatalf("pruning changed the repair result: localized %s/%s/%d vs full %s/%s/%d",
					loc.Status, loc.Template, loc.Changes, noloc.Status, noloc.Template, noloc.Changes)
			}
			if loc.Status != core.StatusRepaired {
				t.Fatalf("expected a repair, got %s", loc.Status)
			}
			if loc.Localization == nil {
				t.Fatalf("localized run produced no localization")
			}

			// Compare instrumentation-site counts per template. Pruning may
			// never add sites, and must remove some on these designs.
			full := map[string]int{}
			for _, pt := range noloc.PerTemplate {
				full[pt.Template] = pt.Sites
			}
			for _, pt := range loc.PerTemplate {
				if !pt.Localized {
					continue // unpruned retry pass
				}
				fullSites, ok := full[pt.Template]
				if !ok {
					continue
				}
				if pt.Sites > fullSites {
					t.Errorf("%s: localization increased sites %d -> %d", pt.Template, fullSites, pt.Sites)
				}
				if pt.Sites < fullSites {
					t.Logf("%s: localization pruned sites %d -> %d", pt.Template, fullSites, pt.Sites)
					pruned++
				}
			}
		})
	}
	if pruned == 0 {
		t.Errorf("localization pruned no instrumentation sites on any benchmark")
	}
}
