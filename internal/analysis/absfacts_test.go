package analysis_test

import (
	"strings"
	"testing"

	"rtlrepair/internal/analysis"
)

// evenCounterSrc only ever holds even values in count (init 0, +2
// steps), so the known-bits domain proves count[0] == 0 as a
// reachability invariant: the count[0] branch is dead, the odd case
// arms are unreachable, and flag — assigned only on those dead paths —
// is a constant net.
const evenCounterSrc = `
module m(input clk, input en, output reg [7:0] count, output reg flag);
  initial count = 8'd0;
  initial flag = 1'b0;
  always @(posedge clk) begin
    if (en) count <= count + 8'd2;
    if (count[0]) flag <= 1'b1;
    case (count[1:0])
      2'b00: ;
      2'b01: flag <= 1'b1;
      2'b10: ;
      2'b11: flag <= 1'b1;
    endcase
  end
endmodule`

func TestFactDeadBranch(t *testing.T) {
	r := analyze(t, evenCounterSrc)
	diags := r.ByRule(analysis.RuleFactDeadBranch)
	if len(diags) != 1 {
		t.Fatalf("fact-dead-branch: got %d diagnostics, want 1\n%s", len(diags), reportString(r))
	}
	d := diags[0]
	if !strings.Contains(d.Msg, "then-branch is dead") {
		t.Errorf("unexpected message %q", d.Msg)
	}
	if len(d.Explain) == 0 {
		t.Fatalf("diagnostic carries no Explain lines")
	}
	joined := strings.Join(d.Explain, "\n")
	if !strings.Contains(joined, "reach(count)") || !strings.Contains(joined, "cond(") {
		t.Errorf("explain lines missing fact justification:\n%s", joined)
	}
}

func TestFactUnreachableArm(t *testing.T) {
	r := analyze(t, evenCounterSrc)
	diags := r.ByRule(analysis.RuleFactDeadArm)
	if len(diags) != 2 {
		t.Fatalf("fact-unreachable-arm: got %d diagnostics, want 2 (labels 01 and 11)\n%s",
			len(diags), reportString(r))
	}
	for _, d := range diags {
		if d.Signal != "count" {
			t.Errorf("diagnostic signal %q, want count", d.Signal)
		}
		if len(d.Explain) == 0 {
			t.Errorf("arm diagnostic carries no Explain lines")
		}
	}
}

func TestConstNet(t *testing.T) {
	r := analyze(t, evenCounterSrc)
	diags := r.ByRule(analysis.RuleConstNet)
	found := false
	for _, d := range diags {
		if d.Signal == "flag" {
			found = true
			if !strings.Contains(d.Msg, "0x0") {
				t.Errorf("const-net message %q does not state the constant", d.Msg)
			}
			if len(d.Explain) == 0 {
				t.Errorf("const-net diagnostic carries no Explain lines")
			}
		}
		if d.Signal == "count" {
			t.Errorf("count reported as constant; it is not")
		}
	}
	if !found {
		t.Fatalf("flag not reported as const-net\n%s", reportString(r))
	}
}

// TestFactPassSkipsUndecided checks the pass stays silent on a design
// whose conditions reachability cannot decide (synchronous reset, no
// initial values — the dominant corpus shape).
func TestFactPassSkipsUndecided(t *testing.T) {
	r := analyze(t, `
module m(input clk, input rst, input en, output reg [3:0] q);
  always @(posedge clk) begin
    if (rst) q <= 4'd0;
    else if (en) q <= q + 4'd1;
  end
endmodule`)
	for _, rule := range []string{analysis.RuleFactDeadBranch, analysis.RuleFactDeadArm, analysis.RuleConstNet} {
		if n := len(r.ByRule(rule)); n != 0 {
			t.Errorf("rule %s fired %d times on an undecidable design\n%s", rule, n, reportString(r))
		}
	}
}
