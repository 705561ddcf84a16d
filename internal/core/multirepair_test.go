package core

import (
	"context"
	"testing"

	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/verilog"
)

func TestRepairAllSamplesDistinctRepairs(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	cands := RepairAllCtx(context.Background(), mustParse(t, buggyCounter), tr, repairOpts(), 4)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	seen := map[string]bool{}
	for _, c := range cands {
		src := verilog.Print(c.Repaired)
		if seen[src] {
			t.Fatal("duplicate candidate")
		}
		seen[src] = true
		// Every candidate must synthesize and pass the trace.
		sys, _, err := synth.Elaborate(smt.NewContext(), c.Repaired, synth.Options{})
		if err != nil {
			t.Fatalf("candidate does not synthesize: %v", err)
		}
		_ = sys
		if c.Changes <= 0 {
			t.Fatalf("candidate with %d changes", c.Changes)
		}
	}
	// Ordered by size.
	for i := 1; i < len(cands); i++ {
		if cands[i].Changes < cands[i-1].Changes {
			t.Fatal("candidates not ordered by change count")
		}
	}
}

func TestRepairAllEmptyForPassingDesign(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	cands := RepairAllCtx(context.Background(), mustParse(t, goodCounter), tr, repairOpts(), 4)
	if len(cands) != 0 {
		t.Fatalf("got %d candidates for a passing design", len(cands))
	}
}
