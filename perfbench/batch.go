package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"rtlrepair/internal/core"
	"rtlrepair/internal/lint"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sim"
)

// batchDesigns are the designs of each batch workload (README.md says
// why these).
var batchDesigns = map[string][]string{
	"solve":  {"sha3_r1", "D9"},
	"encode": {"sha3_w2", "reed_b1", "pairing_w2"},
}

// repairTimeout is the golden-test budget; no benchmark design comes
// near it, so a timeout is always a verdict mismatch.
const repairTimeout = 120 * time.Second

// passResult is one pass of a batch workload over its designs.
type passResult struct {
	wall       time.Duration
	perDesign  []time.Duration
	mismatches int
	results    []*core.Result
}

// runPass repairs every design once, one after the other, at Workers 1.
// A non-nil tracer records the benchmark's own core.frontend span around
// core.NewFrontend and the engine's spans under RepairCtx.
func runPass(designs []*design, tracer *obs.Tracer, reg *obs.Registry, log func(string, ...any)) passResult {
	var pr passResult
	start := time.Now()
	for _, d := range designs {
		// Start every repair from a collected heap, so one design's
		// garbage is not collected on the next one's time.
		runtime.GC()
		t0 := time.Now()
		span := tracer.Start(nil, "core.frontend")
		fe := core.NewFrontend(d.top, d.lib, false)
		span.End()
		ctx := obs.NewContext(context.Background(), obs.Scope{Tracer: tracer, Metrics: reg})
		res := core.RepairCtx(ctx, d.top, d.tr, core.Options{
			Policy:   sim.Randomize,
			Seed:     d.seed,
			Timeout:  repairTimeout,
			Lib:      d.lib,
			Workers:  1,
			Frontend: fe,
		})
		dur := time.Since(t0)
		pr.perDesign = append(pr.perDesign, dur)
		pr.results = append(pr.results, res)
		if got := renderResult(res); got != d.golden {
			pr.mismatches++
			log("FAIL %s: %s", d.name, verdictDiff(d.golden, got))
		}
		log("  %-10s %-14s %8.1f ms", d.name, res.Status, ms(dur))
	}
	pr.wall = time.Since(start)
	return pr
}

// runBatch is the solve and encode workloads: set up the designs
// several times (setup_s is the median), then repair each once. One pass
// is the measured work whatever --seconds says: it takes 15-30 s on a
// 2-vCPU host, about the run time, and a second pass would run on a heap
// the first one grew and read cheaper.
func runBatch(cfg config) (*outcome, error) {
	// A batch workload's inputs are its fixed designs with their golden
	// seeds, so they are the same for every workload seed.
	names := batchDesigns[cfg.workload]

	var designs []*design
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		designs = designs[:0]
		for _, n := range names {
			d, err := loadDesign(n)
			if err != nil {
				return nil, err
			}
			designs = append(designs, d)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	cfg.log("setup: %d designs %v, median %.3f s of %v", len(designs), names, median(setups), setups)

	c0 := cpuTime()
	pr := runPass(designs, nil, nil, cfg.log)
	cpu := (cpuTime() - c0).Seconds()
	var lat []float64
	for _, d := range pr.perDesign {
		lat = append(lat, ms(d))
	}
	out := &outcome{attempted: len(designs), failed: pr.mismatches, m: metrics{
		"setup_s":         median(setups),
		"cpu_s":           cpu,
		"peak_rss_mb":     peakRSSMB(),
		"repair_wall_s":   pr.wall.Seconds(),
		"latency_p50_ms":  median(lat),
		"latency_tail_ms": tail(lat),
		"completed_per_s": float64(len(designs)) / pr.wall.Seconds(),
	}}
	cfg.log("pass: wall %.3f s, cpu %.3f s, peak rss %.1f MB", pr.wall.Seconds(), cpu, out.m["peak_rss_mb"])
	if cfg.trace {
		if err := traceBatch(cfg, designs, out, pr.wall.Seconds()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceBatch runs one traced pass after the untraced one and fills the
// per-layer metrics from its spans, its results and its registry.
func traceBatch(cfg config, designs []*design, out *outcome, untracedWall float64) error {
	tracer := obs.New()
	reg := obs.NewRegistry()
	cfg.log("traced pass")
	pr := runPass(designs, tracer, reg, cfg.log)
	out.attempted += len(designs)
	out.failed += pr.mismatches
	layers, err := selfTimes(tracer, 0)
	if err != nil {
		return err
	}
	for k, v := range layers {
		out.m[k] = v
	}
	// Preprocessing is part of core.NewFrontend, which records no spans;
	// time it from outside, once per design, after the pass.
	for _, d := range designs {
		t0 := time.Now()
		if _, _, _, err := lint.PreprocessWithReport(d.top, d.lib); err != nil {
			return fmt.Errorf("%s: preprocess: %w", d.name, err)
		}
		out.m["lint.preprocess_ms"] += ms(time.Since(t0))
	}
	engineCounts(out.m, pr.results, reg)
	wallMS := ms(pr.wall)
	out.m["trace.wall_ms"] = wallMS
	out.m["trace.overhead_ms"] = wallMS - untracedWall*1000
	var spanned float64
	for _, l := range engineLayers {
		if l != "lint.preprocess_ms" {
			spanned += out.m[l]
		}
	}
	out.m["trace.coverage_pct"] = 100 * spanned / wallMS
	reportShares(cfg, out.m, wallMS)
	return nil
}

// engineCounts fills the engine's per-layer counts from the repair
// results and the metrics registry the repairs recorded into.
func engineCounts(m metrics, results []*core.Result, reg *obs.Registry) {
	var conflicts, props, decisions, learned, vars, clauses, rewrites, fallbacks, ran, found int64
	for _, r := range results {
		conflicts += r.SAT.Conflicts
		props += r.SAT.Propagations
		decisions += r.SAT.Decisions
		learned += r.SAT.Learned
		vars += r.SAT.Vars
		clauses += r.SAT.Clauses
		rewrites += r.Abs.Rewrites
		fallbacks += r.Abs.GuardFallbacks
		for _, t := range r.PerTemplate {
			if t.State == core.AttemptRan {
				ran++
			}
			if t.Found {
				found++
			}
		}
	}
	m["sat.conflicts"] = float64(conflicts)
	m["sat.propagations"] = float64(props)
	m["sat.decisions"] = float64(decisions)
	m["sat.learned"] = float64(learned)
	m["sat.props_per_s"] = 0
	if solve := m["sat.solve_ms"]; solve > 0 {
		m["sat.props_per_s"] = float64(props) / (solve / 1000)
	}
	m["smt.cnf_vars"] = float64(vars)
	m["smt.cnf_clauses"] = float64(clauses)
	m["smt.absint_rewrites"] = float64(rewrites)
	m["smt.absint_guard_fallbacks"] = float64(fallbacks)
	m["core.attempts_ran"] = float64(ran)
	m["core.attempts_found"] = float64(found)
	m["core.extended_cycles"] = float64(reg.Counter("synth.extended_cycles"))
	m["core.prefix_cycles"] = float64(reg.Counter("portfolio.prefix.cycles"))
	m["core.windows"] = float64(reg.Counter("synth.windows"))
	m["core.solver_builds"] = float64(reg.Counter("synth.solver_builds"))
}

// reportShares logs each engine layer's share of the traced wall time.
func reportShares(cfg config, m metrics, wallMS float64) {
	cfg.log("layer shares of %.1f ms traced wall (coverage %.1f%%, overhead %+.1f ms):",
		wallMS, m["trace.coverage_pct"], m["trace.overhead_ms"])
	for _, l := range engineLayers {
		cfg.log("  %-22s %10.1f ms %6.1f%%", l, m[l], 100*m[l]/wallMS)
	}
}
