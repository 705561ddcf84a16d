package bmc

import (
	"context"
	"fmt"
	"time"

	"rtlrepair/internal/core"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

// LoopOptions configures the counterexample-guided repair loop.
type LoopOptions struct {
	// Property is the 1-bit output that must always hold.
	Property string
	// MaxDepth is the BMC bound per iteration.
	MaxDepth int
	// MaxIters bounds the CEGIS iterations.
	MaxIters int
	// Timeout bounds the whole loop.
	Timeout time.Duration
	// Lib provides instantiated modules.
	Lib map[string]*verilog.Module
	// ExtraTraces are functional traces (e.g. a recorded testbench) the
	// repair must also satisfy, preventing degenerate "safe but useless"
	// repairs.
	ExtraTraces []*trace.Trace
}

// LoopResult reports the CEGIS outcome.
type LoopResult struct {
	// Repaired is the final design, BMC-safe up to MaxDepth (nil if the
	// loop failed).
	Repaired *verilog.Module
	// Iterations is the number of BMC→repair rounds performed.
	Iterations int
	// Counterexamples are the traces accumulated along the way.
	Counterexamples []*trace.Trace
	// AlreadySafe is true when the input design never violated.
	AlreadySafe bool
	Err         error
}

// RepairLoop implements the §8 sketch of combining RTL-Repair with
// formal tests: BMC finds a counterexample, the repair engine must fix
// it (with the property logic frozen) while still satisfying every
// previously-found counterexample and any functional traces, and the
// loop repeats until BMC proves the bound.
func RepairLoop(m *verilog.Module, opts LoopOptions) *LoopResult {
	if opts.MaxIters <= 0 {
		opts.MaxIters = 8
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 16
	}
	if opts.Timeout == 0 {
		opts.Timeout = 2 * time.Minute
	}
	deadline := time.Now().Add(opts.Timeout)
	res := &LoopResult{}
	current := m
	traces := append([]*trace.Trace{}, opts.ExtraTraces...)

	for iter := 0; iter < opts.MaxIters; iter++ {
		if time.Now().After(deadline) {
			res.Err = fmt.Errorf("bmc: repair loop timeout after %d iterations", iter)
			return res
		}
		ctx := smt.NewContext()
		sys, _, err := synth.Elaborate(ctx, current, synth.Options{Lib: opts.Lib})
		if err != nil {
			res.Err = fmt.Errorf("bmc: candidate does not synthesize: %v", err)
			return res
		}
		check, err := Check(ctx, sys, opts.Property, Options{
			MaxDepth:  opts.MaxDepth,
			FromReset: true,
			Deadline:  deadline,
		})
		if err != nil {
			res.Err = err
			return res
		}
		if !check.Violated {
			res.Repaired = current
			res.Iterations = iter
			res.Counterexamples = traces[len(opts.ExtraTraces):]
			res.AlreadySafe = iter == 0
			return res
		}
		traces = append(traces, check.Counterexample)
		res.Iterations = iter + 1

		rep := core.RepairMultiCtx(context.Background(), m, traces, core.Options{
			Policy:  0, // zero unknowns: counterexample traces are concrete
			Seed:    1,
			Timeout: time.Until(deadline),
			Lib:     opts.Lib,
			Frozen:  []string{opts.Property},
		})
		switch rep.Status {
		case core.StatusRepaired, core.StatusPreprocessed, core.StatusNoRepairNeeded:
			current = rep.Repaired
		default:
			res.Err = fmt.Errorf("bmc: repair failed at iteration %d: %s (%s)", iter+1, rep.Status, rep.Reason)
			res.Counterexamples = traces[len(opts.ExtraTraces):]
			return res
		}
	}
	res.Err = fmt.Errorf("bmc: no fixpoint after %d iterations", opts.MaxIters)
	res.Counterexamples = traces[len(opts.ExtraTraces):]
	return res
}
