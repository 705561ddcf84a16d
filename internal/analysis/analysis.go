// Package analysis is a netlist-level static-analysis engine over the
// Verilog AST and the flattened design. It generalizes the three
// auto-fix rules of internal/lint into a multi-pass linter producing
// structured Diagnostic values (rule, severity, position, signal,
// message) — the checks Verilator performs for RTL-Repair's
// preprocessing stage (§4.1) that the seed reimplementation surfaced
// only as late elaboration errors: multiple drivers, combinational
// loops, width mismatches, incomplete or overlapping case statements,
// dead branches and unsupported asynchronous resets.
//
// Error-severity diagnostics correspond to conditions that make
// elaboration fail (the paper's "does not synthesize" outcome); warnings
// flag latch risks and silent-truncation hazards that elaboration
// tolerates. internal/lint consumes the diagnostics to drive its
// automatic fixes and to classify designs as cannot-repair early, and
// internal/core uses the fault-localization pass (localize.go) to prune
// template instrumentation sites before synthesis.
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"rtlrepair/internal/synth"
	"rtlrepair/internal/verilog"
)

// Severity grades a diagnostic.
type Severity int

// Severities. SevError marks conditions that prevent elaboration.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	}
	return "info"
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Rule identifiers, stable across releases (rtllint output and tests
// key on them).
const (
	RuleMultiDriven      = "multi-driven"
	RuleUndriven         = "undriven"
	RuleUnused           = "unused"
	RuleUndeclared       = "undeclared"
	RuleCombLoop         = "comb-loop"
	RuleWidthMismatch    = "width-mismatch"
	RuleCaseIncomplete   = "case-incomplete"
	RuleCaseOverlap      = "case-overlap"
	RuleDeadBranch       = "dead-branch"
	RuleAsyncReset       = "async-reset"
	RuleMixedSensitivity = "mixed-sensitivity"
	RuleSensIncomplete   = "sens-incomplete"
	RuleOutOfRange       = "out-of-range"
	RuleNotSynthesizable = "not-synthesizable"
	// Fact-driven rules (absfacts.go): justified by abstract-reachability
	// invariants over the elaborated transition system rather than by
	// syntactic constant folding. Their diagnostics carry Explain lines
	// (rtllint -explain) listing the abstract facts behind the verdict.
	RuleConstNet       = "const-net"
	RuleFactDeadBranch = "fact-dead-branch"
	RuleFactDeadArm    = "fact-unreachable-arm"
)

// Diagnostic is one finding of the analysis engine.
type Diagnostic struct {
	Rule     string      `json:"rule"`
	Severity Severity    `json:"severity"`
	Pos      verilog.Pos `json:"pos"`
	Signal   string      `json:"signal,omitempty"`
	Msg      string      `json:"message"`
	// Explain holds the justification chain for fact-driven rules: one
	// line per abstract fact the verdict rests on (rtllint -explain).
	Explain []string `json:"explain,omitempty"`
}

func (d Diagnostic) String() string {
	sig := ""
	if d.Signal != "" {
		sig = fmt.Sprintf(" [%s]", d.Signal)
	}
	return fmt.Sprintf("%v: %s: %s: %s%s", d.Pos, d.Severity, d.Rule, d.Msg, sig)
}

// Report is the ordered diagnostic list of one analysis run.
type Report struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
}

func (r *Report) add(d Diagnostic) { r.Diagnostics = append(r.Diagnostics, d) }

// Errors returns the error-severity diagnostics.
func (r *Report) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// Count returns the number of diagnostics at the given severity.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == sev {
			n++
		}
	}
	return n
}

// ByRule returns the diagnostics for one rule.
func (r *Report) ByRule(rule string) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Rule == rule {
			out = append(out, d)
		}
	}
	return out
}

// FlaggedSignals returns the set of signals any diagnostic names.
func (r *Report) FlaggedSignals() map[string]bool {
	out := map[string]bool{}
	for _, d := range r.Diagnostics {
		if d.Signal != "" {
			out[d.Signal] = true
		}
	}
	return out
}

// Sort orders diagnostics by position, then rule, then signal, making
// reports deterministic.
func (r *Report) Sort() {
	sort.SliceStable(r.Diagnostics, func(i, j int) bool {
		a, b := r.Diagnostics[i], r.Diagnostics[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Signal < b.Signal
	})
}

// Options configures an analysis run.
type Options struct {
	// Lib provides definitions for instantiated modules.
	Lib map[string]*verilog.Module
	// Facts enables the abstract-interpretation diagnostics
	// (const-net, fact-dead-branch, fact-unreachable-arm): a second
	// elaboration plus a reachability fixpoint over the transition
	// system. rtllint turns it on; the repair frontend leaves it off —
	// repair doesn't consume these diagnostics and the fixpoint would
	// tax every core.RepairCtx call.
	Facts bool
}

// analyzer carries the shared pass state: the flattened module, its
// declaration-level info and its dependency graph.
type analyzer struct {
	m      *verilog.Module
	static *synth.StaticInfo
	deps   *synth.DepGraph
	report *Report
	// loopVars holds for-loop induction variables of the pre-unroll
	// design. Unrolling eliminates their uses, leaving a dead
	// declaration that must not be reported as undriven/unused.
	loopVars map[string]bool
}

// Analyze runs every pass over the design and returns the diagnostics.
// The input module is not modified. Analysis never fails: designs the
// frontend cannot even flatten yield a single not-synthesizable error.
func Analyze(m *verilog.Module, opts Options) *Report {
	r := &Report{}
	flat, err := synth.Flatten(m, opts.Lib)
	if err != nil {
		r.add(Diagnostic{Rule: RuleNotSynthesizable, Severity: SevError, Pos: m.Pos, Msg: err.Error()})
		return r
	}
	static, err := synth.Static(flat)
	if err != nil {
		r.add(Diagnostic{Rule: RuleNotSynthesizable, Severity: SevError, Pos: m.Pos, Msg: err.Error()})
		return r
	}
	loops := map[string]bool{}
	forLoopVars(m, loops)
	for _, lm := range opts.Lib {
		forLoopVars(lm, loops)
	}
	a := &analyzer{m: flat, static: static, deps: synth.Deps(flat), report: r, loopVars: loops}
	a.driverPass()
	a.combLoopPass()
	a.widthPass()
	a.casePass()
	a.resetPass()
	a.sensPass()
	if opts.Facts {
		a.absFactsPass()
	}
	r.Sort()
	return r
}

// errf / warnf append diagnostics.
func (a *analyzer) errf(rule string, pos verilog.Pos, signal, format string, args ...any) {
	a.report.add(Diagnostic{Rule: rule, Severity: SevError, Pos: pos, Signal: signal, Msg: fmt.Sprintf(format, args...)})
}

func (a *analyzer) warnf(rule string, pos verilog.Pos, signal, format string, args ...any) {
	a.report.add(Diagnostic{Rule: rule, Severity: SevWarning, Pos: pos, Signal: signal, Msg: fmt.Sprintf(format, args...)})
}

// isParam reports whether a name is a parameter or localparam.
func (a *analyzer) isParam(name string) bool {
	_, ok := a.static.Params[name]
	return ok
}

// isLoopVar reports whether a flattened-design name is a for-loop
// induction variable. Flattening prefixes submodule signals with
// "<instname>__", so suffix matches count too.
func (a *analyzer) isLoopVar(name string) bool {
	if a.loopVars[name] {
		return true
	}
	for v := range a.loopVars {
		if strings.HasSuffix(name, "__"+v) {
			return true
		}
	}
	return false
}

// forLoopVars collects the for-loop induction variable names of a
// module's processes into vars.
func forLoopVars(m *verilog.Module, vars map[string]bool) {
	var rec func(s verilog.Stmt)
	rec = func(s verilog.Stmt) {
		switch s := s.(type) {
		case *verilog.Block:
			for _, inner := range s.Stmts {
				rec(inner)
			}
		case *verilog.If:
			rec(s.Then)
			if s.Else != nil {
				rec(s.Else)
			}
		case *verilog.Case:
			for _, item := range s.Items {
				rec(item.Body)
			}
		case *verilog.For:
			vars[s.Var] = true
			rec(s.Body)
		}
	}
	for _, it := range m.Items {
		switch it := it.(type) {
		case *verilog.Always:
			rec(it.Body)
		case *verilog.Initial:
			rec(it.Body)
		}
	}
}

// declOf returns the declaration of a signal.
func (a *analyzer) declOf(name string) (synth.SigDecl, bool) {
	d, ok := a.static.Signals[name]
	return d, ok
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
