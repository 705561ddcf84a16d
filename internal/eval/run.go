// Package eval orchestrates the paper's evaluation (§6): it runs
// RTL-Repair and the CirFix baseline over the benchmark corpus, applies
// the automated correctness checks of Table 4 (testbench, gate-level
// simulation, independent event-driven simulation, extended testbench),
// computes the OSDD metric of Table 2, and renders Tables 1–6.
package eval

import (
	"context"
	"fmt"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/bv"
	"rtlrepair/internal/cirfix"
	"rtlrepair/internal/core"
	"rtlrepair/internal/netlist"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/osdd"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/tsys"
	"rtlrepair/internal/verilog"
)

// CheckOutcome is one automated check's verdict.
type CheckOutcome int

// Check outcomes. NA means the check did not apply (e.g. the ground
// truth itself fails gate-level simulation, §6.2).
const (
	CheckNA CheckOutcome = iota
	CheckPass
	CheckFail
)

func (c CheckOutcome) String() string {
	switch c {
	case CheckPass:
		return "pass"
	case CheckFail:
		return "FAIL"
	}
	return "-"
}

// Symbol renders the paper's ✔/✖/empty notation (ASCII).
func (c CheckOutcome) Symbol() string {
	switch c {
	case CheckPass:
		return "+"
	case CheckFail:
		return "x"
	}
	return " "
}

// Checks aggregates the Table 4 verdicts for one repair.
type Checks struct {
	Testbench CheckOutcome
	GateLevel CheckOutcome
	EventSim  CheckOutcome
	Extended  CheckOutcome
}

// Overall reports whether every applicable check passed.
func (c Checks) Overall() bool {
	for _, o := range []CheckOutcome{c.Testbench, c.GateLevel, c.EventSim, c.Extended} {
		if o == CheckFail {
			return false
		}
	}
	return c.Testbench == CheckPass
}

// Verdict classifies a tool run in the paper's ✔/✖/○ taxonomy.
type Verdict int

// Verdicts.
const (
	VerdictNone    Verdict = iota // ○ no repair produced
	VerdictCorrect                // ✔ repair passes all checks
	VerdictWrong                  // ✖ repair produced but a check fails
)

func (v Verdict) String() string {
	switch v {
	case VerdictCorrect:
		return "ok"
	case VerdictWrong:
		return "wrong"
	}
	return "none"
}

// Symbol renders ✔/✖/○ in ASCII.
func (v Verdict) Symbol() string {
	switch v {
	case VerdictCorrect:
		return "+"
	case VerdictWrong:
		return "x"
	}
	return "o"
}

// ToolRun is one tool's result on one benchmark.
type ToolRun struct {
	Bench    *bench.Benchmark
	Repaired *verilog.Module // nil if no repair
	Status   string
	Template string
	Changes  int
	Duration time.Duration
	Checks   Checks
	Verdict  Verdict
	Window   [2]int
	Seed     int64
	// PerTemplate (RTL-Repair only) for Table 5.
	PerTemplate []core.TemplateResult
	Fixes       int
	Err         string
}

// Options configures an evaluation run.
type Options struct {
	// RTLTimeout is RTL-Repair's budget per benchmark (paper: 60 s).
	RTLTimeout time.Duration
	// CirFixTimeout is the baseline's budget per benchmark (the paper
	// gave CirFix 16 h; scale to taste).
	CirFixTimeout time.Duration
	// CirFixGenerations caps the genetic search.
	CirFixGenerations int
	// Basic disables adaptive windowing.
	Basic bool
	// Seed is the base RNG seed.
	Seed int64
	// MaxTraceForChecks truncates very long traces for the expensive
	// secondary checks (gate-level, event sim); 0 = no truncation.
	MaxTraceForChecks int
	// Workers is the portfolio worker count handed to core.RepairCtx
	// (0 = one per CPU, 1 = sequential).
	Workers int
	// Certify runs every repair in self-certifying mode (DRUP-checked
	// Unsat verdicts, interpreter-validated Sat models).
	Certify bool
	// NoAbsint disables the abstract-interpretation term simplifier.
	NoAbsint bool
	// Obs is the observability scope threaded into every core.RepairCtx
	// call: one "repair" span per benchmark run, plus the shared metrics
	// registry. The zero Scope (the default) disables it.
	Obs obs.Scope
	// Ctx, when non-nil, cancels in-flight repairs: commands wire their
	// SIGINT/SIGTERM context here so an interrupted evaluation stops the
	// SAT searches promptly instead of running every budget down.
	Ctx context.Context
}

// DefaultOptions returns the evaluation defaults used by the tables.
func DefaultOptions() Options {
	return Options{
		RTLTimeout:        60 * time.Second,
		CirFixTimeout:     15 * time.Second,
		CirFixGenerations: 40,
		Seed:              1,
		MaxTraceForChecks: 3000,
	}
}

// ChooseSeed finds a concretization seed under which the buggy design
// actually fails its testbench (randomized unknown values can mask
// power-on bugs; rerunning with a fresh seed is what a user would do).
// Exported for the load generator (cmd/rtlload), which replays the
// corpus against a repair server and needs the same seed choice the
// evaluation uses.
func ChooseSeed(b *bench.Benchmark, base int64) int64 {
	sys, err := b.BuggySystem()
	if err != nil {
		return base
	}
	tr, err := b.Trace()
	if err != nil {
		return base
	}
	for seed := base; seed < base+8; seed++ {
		init, ctr := core.Concretize(sys, tr, sim.Randomize, seed)
		cs := sim.NewCycleSim(sys, sim.Zero, 0)
		for name, v := range init {
			cs.SetState(name, v)
		}
		if !sim.RunTraceFrom(cs, ctr, 0, sim.RunOptions{Policy: sim.Zero}).Passed() {
			return seed
		}
	}
	return base
}

// RunRTLRepair executes RTL-Repair on one benchmark and applies the
// correctness checks.
func RunRTLRepair(b *bench.Benchmark, opts Options) *ToolRun {
	run := &ToolRun{Bench: b}
	tr, err := b.Trace()
	if err != nil {
		run.Err = err.Error()
		return run
	}
	m, err := b.BuggyModule()
	if err != nil {
		run.Err = err.Error()
		return run
	}
	lib, err := b.LibModules()
	if err != nil {
		run.Err = err.Error()
		return run
	}
	seed := ChooseSeed(b, opts.Seed)
	run.Seed = seed
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res := core.RepairCtx(obs.NewContext(ctx, opts.Obs), m, tr, core.Options{
		Policy:   sim.Randomize,
		Seed:     seed,
		Timeout:  opts.RTLTimeout,
		Basic:    opts.Basic,
		Lib:      lib,
		Workers:  opts.Workers,
		Certify:  opts.Certify,
		NoAbsint: opts.NoAbsint,
	})
	run.Duration = res.Duration
	run.Status = res.Status.String()
	run.Template = res.Template
	run.Changes = res.Changes
	run.PerTemplate = res.PerTemplate
	run.Window = res.Window
	run.Fixes = len(res.Fixes)
	if res.Status == core.StatusPreprocessed {
		run.Template = "preprocessing"
	}

	switch res.Status {
	case core.StatusRepaired, core.StatusPreprocessed, core.StatusNoRepairNeeded:
		// "No repair needed" counts as the tool claiming the design is
		// fine; the checks then judge that claim (shift_k1's ✖).
		run.Repaired = res.Repaired
		run.Checks = runChecks(b, res.Repaired, opts)
		if run.Checks.Overall() {
			run.Verdict = VerdictCorrect
		} else {
			run.Verdict = VerdictWrong
		}
	default:
		run.Verdict = VerdictNone
	}
	return run
}

// RunCirFix executes the genetic baseline on one benchmark.
func RunCirFix(b *bench.Benchmark, opts Options) *ToolRun {
	run := &ToolRun{Bench: b}
	tr, err := b.Trace()
	if err != nil {
		run.Err = err.Error()
		return run
	}
	m, err := b.BuggyModule()
	if err != nil {
		run.Err = err.Error()
		return run
	}
	lib, err := b.LibModules()
	if err != nil {
		run.Err = err.Error()
		return run
	}
	ctr := tr
	if opts.MaxTraceForChecks > 0 && tr.Len() > opts.MaxTraceForChecks {
		ctr = tr.Slice(0, opts.MaxTraceForChecks)
	}
	res := cirfix.Repair(m, ctr, cirfix.Options{
		Seed:        opts.Seed,
		Timeout:     opts.CirFixTimeout,
		Generations: opts.CirFixGenerations,
		Policy:      sim.Randomize,
		Lib:         lib,
	})
	run.Duration = res.Duration
	run.Status = res.Status.String()
	run.Changes = res.Changes
	if res.Status == cirfix.StatusRepaired {
		run.Repaired = res.Repaired
		run.Checks = runChecks(b, res.Repaired, opts)
		if run.Checks.Overall() {
			run.Verdict = VerdictCorrect
		} else {
			run.Verdict = VerdictWrong
		}
	} else {
		run.Verdict = VerdictNone
	}
	return run
}

// runChecks applies the Table 4 verification battery to a repaired
// module. Secondary checks are conditioned on the ground truth passing
// them (exactly the paper's methodology for gate-level simulation and
// iverilog).
func runChecks(b *bench.Benchmark, repaired *verilog.Module, opts Options) Checks {
	var c Checks
	tr, err := b.Trace()
	if err != nil {
		return c
	}
	lib, _ := b.LibModules()
	checkTr := tr
	if opts.MaxTraceForChecks > 0 && tr.Len() > opts.MaxTraceForChecks {
		checkTr = tr.Slice(0, opts.MaxTraceForChecks)
	}

	// 1. Testbench re-simulation (cycle-accurate, randomized unknowns).
	sys, _, err := synth.Elaborate(smt.NewContext(), repaired, synth.Options{Lib: lib})
	if err != nil {
		c.Testbench = CheckFail
		return c
	}
	c.Testbench = CheckPass
	for seed := int64(1); seed <= 3; seed++ {
		if !sim.RunTrace(sys, tr, sim.RunOptions{Policy: sim.Randomize, Seed: seed}).Passed() {
			c.Testbench = CheckFail
		}
	}

	// 2. Gate-level simulation, if the ground truth supports it.
	gtSys, err := b.GroundTruthSystem()
	if err == nil {
		if gtNl, err := netlist.Build(gtSys); err == nil {
			if cyc, _ := netlist.RunGateTrace(gtNl, checkTr, netlist.PolicyRandomize, 1); cyc < 0 {
				if nl, err := netlist.Build(sys); err == nil {
					if cyc, _ := netlist.RunGateTrace(nl, checkTr, netlist.PolicyRandomize, 1); cyc < 0 {
						c.GateLevel = CheckPass
					} else {
						c.GateLevel = CheckFail
					}
				} else {
					c.GateLevel = CheckFail
				}
			}
		}
	}

	// 3. Independent event-driven simulation, if the ground truth passes.
	gtMod, err := b.GroundTruthModule()
	if err == nil {
		if gtEs, err := sim.NewEventSim(gtMod, lib); err == nil {
			if sim.RunEventTrace(gtEs, checkTr, sim.RunOptions{Policy: sim.Zero}).Passed() {
				if es, err := sim.NewEventSim(repaired, lib); err == nil {
					if sim.RunEventTrace(es, checkTr, sim.RunOptions{Policy: sim.Zero}).Passed() {
						c.EventSim = CheckPass
					} else {
						c.EventSim = CheckFail
					}
				} else {
					c.EventSim = CheckFail
				}
			}
		}
	}

	// 4. Extended testbench (decoder benchmarks).
	if ext, _ := b.ExtendedTrace(); ext != nil {
		if sim.RunTrace(sys, ext, sim.RunOptions{Policy: sim.Randomize, Seed: 1}).Passed() {
			c.Extended = CheckPass
		} else {
			c.Extended = CheckFail
		}
	}
	return c
}

// OSDDFor computes the OSDD entry for a benchmark (Table 2).
func OSDDFor(b *bench.Benchmark) (res *osdd.Result, firstError int, err error) {
	tr, err := b.Trace()
	if err != nil {
		return nil, -1, err
	}
	gt, err := b.GroundTruthSystem()
	if err != nil {
		return nil, -1, err
	}
	buggy, err := b.BuggySystem()
	if err != nil {
		return nil, -1, fmt.Errorf("not synthesizable: %v", err)
	}
	r, err := osdd.Compute(gt, buggy, tr, 1)
	if err != nil {
		return nil, -1, err
	}
	return r, r.FirstOutputDiv, nil
}

// helper types used by tables.go

type durations []time.Duration

func (d durations) median() time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append(durations{}, d...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func (d durations) max() time.Duration {
	var m time.Duration
	for _, v := range d {
		if v > m {
			m = v
		}
	}
	return m
}

var (
	_ = bv.Zero
	_ = trace.New
	_ = tsys.System{}
)
