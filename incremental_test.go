package rtlrepair_test

import (
	"context"
	"testing"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/core"
	"rtlrepair/internal/sim"
)

// TestIncrementalWindowReusesSolver pins the incremental re-encoding: on
// a design whose repair widens the synthesis window at least twice, the
// engine must build strictly fewer solvers than it solves windows —
// kFuture growth extends the live clause database instead of rebuilding.
func TestIncrementalWindowReusesSolver(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full benchmark repair")
	}
	for _, name := range []string{"S1.R", "S1.B"} {
		b := bench.ByName(name)
		if b == nil {
			t.Fatalf("benchmark %s missing from registry", name)
		}
		t.Run(name, func(t *testing.T) {
			tr, err := b.Trace()
			if err != nil {
				t.Fatal(err)
			}
			m, err := b.BuggyModule()
			if err != nil {
				t.Fatal(err)
			}
			lib, err := b.LibModules()
			if err != nil {
				t.Fatal(err)
			}
			res := core.RepairCtx(context.Background(), m, tr, core.Options{
				Policy:  sim.Randomize,
				Seed:    1,
				Timeout: 120 * time.Second,
				Lib:     lib,
				Workers: 1,
			})
			if res.Status != core.StatusRepaired {
				t.Fatalf("status = %v (%s)", res.Status, res.Reason)
			}
			var windows, builds, extended, grown int
			for _, at := range res.PerTemplate {
				windows += at.Stats.Windows
				builds += at.Stats.SolverBuilds
				extended += at.Stats.ExtendedCycles
				if at.Stats.Windows >= 3 {
					grown++
				}
			}
			if grown == 0 {
				t.Fatalf("no attempt widened its window >= 2 times (windows=%d); design no longer exercises incremental growth", windows)
			}
			if builds >= windows {
				t.Errorf("solver builds (%d) not fewer than windows solved (%d): incremental reuse is not engaging", builds, windows)
			}
			if extended == 0 {
				t.Errorf("no cycles were appended to a live solver (ExtendedCycles = 0)")
			}
			t.Logf("%s: %d windows, %d solver builds, %d cycles appended incrementally", name, windows, builds, extended)
		})
	}
}
