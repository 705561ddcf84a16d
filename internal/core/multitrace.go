package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"rtlrepair/internal/bv"

	"rtlrepair/internal/sat"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/tsys"
	"rtlrepair/internal/verilog"
)

// RepairMultiCtx repairs a design against several traces simultaneously:
// the synthesis variables are shared across one unrolling per trace, so
// the chosen repair must make every trace pass. Each trace restarts the
// design from its power-on state (this is the CEGIS building block used
// by internal/bmc — counterexample traces all start from reset). Because
// every trace is fully unrolled, this entry is meant for the short
// traces BMC produces, not for 100k-cycle testbenches.
//
// A cancelled or deadline-expired ctx interrupts the running SAT query
// (via the solver's cooperative interrupt flag) and the result reports
// StatusTimeout with the partial SAT/certify statistics accumulated so
// far aggregated onto it. The effective deadline is the earlier of
// ctx's deadline and opts.Timeout.
func RepairMultiCtx(ctx context.Context, m *verilog.Module, traces []*trace.Trace, opts Options) *Result {
	startTime := time.Now()
	if opts.Timeout == 0 {
		opts.Timeout = 60 * time.Second
	}
	if opts.Templates == nil {
		opts.Templates = DefaultTemplates()
	}
	deadline := startTime.Add(opts.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	var stop atomic.Bool
	defer watchCancel(ctx, &stop)()
	res := &Result{FirstFailure: -1}
	finish := func() *Result {
		res.Duration = time.Since(startTime)
		return res
	}
	if len(traces) == 0 {
		res.Status = StatusNoRepairNeeded
		res.Repaired = m
		return finish()
	}

	fixed := m
	if !opts.NoPreprocess {
		f, _, err := preprocessQuiet(m, opts.Lib)
		if err == nil {
			fixed = f
		}
	}
	sctx := smt.NewContext()
	sys, _, err := synth.Elaborate(sctx, fixed, synth.Options{Lib: opts.Lib})
	if err != nil {
		res.Status = StatusCannotRepair
		res.Reason = "not synthesizable: " + err.Error()
		return finish()
	}

	// Concretize all traces with one shared initial state.
	init, _ := Concretize(sys, traces[0], opts.Policy, opts.Seed)
	ctrs := make([]*trace.Trace, len(traces))
	for i, tr := range traces {
		_, ctrs[i] = Concretize(sys, tr, opts.Policy, opts.Seed)
	}
	allPass := true
	for _, ctr := range ctrs {
		if !runConcrete(sys, ctr, init).Passed() {
			allPass = false
			break
		}
	}
	if allPass {
		res.Status = StatusNoRepairNeeded
		res.Repaired = fixed
		return finish()
	}

	counter := 0
	for _, tmpl := range opts.Templates {
		if stop.Load() || ctx.Err() != nil || time.Now().After(deadline) {
			res.Status = StatusTimeout
			res.Reason = cancelReason(ctx.Err())
			return finish()
		}
		vars := NewVarTable(&counter)
		env := &Env{Info: elaborateInfo(sctx, fixed, opts.Lib), Lib: opts.Lib, Frozen: opts.frozenSet()}
		instr, err := tmpl.Instrument(fixed, env, vars)
		if err != nil || vars.Empty() {
			continue
		}
		isys, _, err := synth.Elaborate(sctx, instr, synth.Options{Lib: opts.Lib})
		if err != nil {
			continue
		}
		sol, err := solveMultiTrace(sctx, isys, vars, ctrs, init, deadline, &stop, opts, res)
		if err != nil {
			// A timed-out or cancelled query ends the template loop: the
			// remaining templates share the same exhausted budget. The
			// solver statistics accumulated so far stay on res.
			res.Status = StatusTimeout
			res.Reason = cancelReason(ctx.Err())
			return finish()
		}
		if sol == nil {
			continue
		}
		repaired, rerr := Resolve(instr, sol.Assign)
		if rerr != nil {
			continue
		}
		ok := true
		for _, ctr := range ctrs {
			if !verifyRepaired(repaired, ctr, init, opts.Lib) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		res.Status = StatusRepaired
		res.Repaired = repaired
		res.Changes = sol.Changes
		res.Template = tmpl.Name()
		res.ChangeDescs = vars.EnabledDescs(sol.Assign)
		return finish()
	}
	res.Status = StatusCannotRepair
	res.Reason = "no template found a repair satisfying all traces"
	return finish()
}

// solveMultiTrace asserts every trace over its own tagged unrolling and
// minimizes the shared change count. The solver's SAT/certify counters
// aggregate onto res whether or not a solution is found — partial work
// from a timed-out or cancelled query is reported, not dropped.
func solveMultiTrace(ctx *smt.Context, sys *tsys.System, vars *VarTable, traces []*trace.Trace, init map[string]bv.XBV, deadline time.Time, stop *atomic.Bool, opts Options, res *Result) (*Solution, error) {
	solver := smt.NewSolver(ctx)
	defer func() {
		res.SAT.Add(solver.SATStats())
		res.Certify.Add(solver.CertifyStats())
	}()
	if opts.NoAbsint {
		solver.DisableSimplify()
	}
	if opts.Certify {
		solver.EnableCertification()
	}
	solver.SetDeadline(deadline)
	solver.SetInterrupt(stop)

	initTerms := map[*smt.Term]*smt.Term{}
	for _, st := range sys.States {
		v, ok := init[st.Var.Name]
		if !ok {
			return nil, fmt.Errorf("core: missing init for %q", st.Var.Name)
		}
		initTerms[st.Var] = ctx.Const(v.Val)
	}

	for ti, tr := range traces {
		u := tsys.UnrollTagged(ctx, sys, tr.Len()-1, initTerms, fmt.Sprintf("t%d", ti))
		for k := 0; k < tr.Len(); k++ {
			for _, in := range sys.Inputs {
				idx := tr.InputIndex(in.Name)
				if idx < 0 {
					solver.Assert(ctx.Eq(u.InputAt(k, in), ctx.ConstU(in.Width, 0)))
					continue
				}
				solver.Assert(ctx.Eq(u.InputAt(k, in), ctx.Const(tr.InputRows[k][idx].Val)))
			}
			for i, sig := range tr.Outputs {
				exp := tr.OutputRows[k][i]
				if exp.Known.IsZero() {
					continue
				}
				outExpr := u.OutputAt(k, sig.Name)
				if outExpr == nil || outExpr.Width != exp.Width() {
					if outExpr != nil {
						solver.Assert(ctx.False())
					}
					continue
				}
				if exp.Known.IsOnes() {
					solver.Assert(ctx.Eq(outExpr, ctx.Const(exp.Val)))
				} else {
					mask := ctx.Const(exp.Known)
					solver.Assert(ctx.Eq(ctx.And(outExpr, mask), ctx.Const(exp.Val.And(exp.Known))))
				}
			}
		}
	}

	st, err := solver.Check()
	if err != nil {
		if errors.Is(err, sat.ErrInterrupted) {
			return nil, ErrCancelled
		}
		return nil, ErrTimeout
	}
	if st != sat.Sat {
		return nil, nil
	}
	readModel := func() Assignment {
		a := Assignment{}
		for _, p := range vars.Phis {
			if t := ctx.LookupVar(p.Name); t != nil {
				a[p.Name] = solver.Value(t)
			}
		}
		for _, al := range vars.Alphas {
			if t := ctx.LookupVar(al.Name); t != nil {
				a[al.Name] = solver.Value(t)
			}
		}
		return a
	}
	best := readModel()
	bestChanges := vars.Changes(best)
	sum := sumTermFor(ctx, vars)
	for k := 0; k < bestChanges; k++ {
		st, err := solver.Check(ctx.Ule(sum, ctx.ConstU(16, uint64(k))))
		if err != nil {
			if errors.Is(err, sat.ErrInterrupted) {
				return nil, ErrCancelled
			}
			return nil, ErrTimeout
		}
		if st == sat.Sat {
			best = readModel()
			break
		}
	}
	return &Solution{Assign: best, Changes: vars.Changes(best)}, nil
}

// sumTermFor builds Σ cost·φ for a table (shared with Synthesizer).
func sumTermFor(ctx *smt.Context, vars *VarTable) *smt.Term {
	const w = 16
	sum := ctx.ConstU(w, 0)
	for _, p := range vars.Phis {
		t := ctx.LookupVar(p.Name)
		if t == nil {
			continue
		}
		term := ctx.ZeroExt(t, w)
		if p.Cost != 1 {
			term = ctx.Mul(term, ctx.ConstU(w, uint64(p.Cost)))
		}
		sum = ctx.Add(sum, term)
	}
	return sum
}
