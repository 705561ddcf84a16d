// The osdd example reproduces the analysis of §5: it computes the
// output/state divergence delta for every benchmark with a
// synthesizable buggy version and shows the paper's observation that
// repair tools only succeed on low-OSDD bugs.
package main

import (
	"context"
	"fmt"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/core"
	"rtlrepair/internal/eval"
	"rtlrepair/internal/sim"
)

func main() {
	fmt.Printf("%-12s %9s %10s %8s   %s\n", "benchmark", "TB cycles", "first err", "OSDD", "RTL-Repair outcome")
	for _, b := range bench.CirFixSuite() {
		res, firstErr, err := eval.OSDDFor(b)
		osddStr := "n/a"
		firstStr := "-"
		if err == nil && res.Defined {
			osddStr = fmt.Sprintf("%d", res.OSDD)
		}
		if firstErr >= 0 {
			firstStr = fmt.Sprintf("%d", firstErr)
		}

		// Run the repair tool to correlate OSDD with repairability.
		// (Preprocessing can fix designs whose buggy version does not
		// even synthesize, so the repair runs regardless of OSDD errors.)
		outcome := "-"
		tr, terr := b.Trace()
		m, merr := b.BuggyModule()
		lib, _ := b.LibModules()
		if terr == nil && merr == nil {
			r := core.RepairCtx(context.Background(), m, tr, core.Options{
				Policy: sim.Randomize, Seed: 1, Timeout: 30 * time.Second, Lib: lib,
			})
			outcome = r.Status.String()
		}
		_ = err
		fmt.Printf("%-12s %9d %10s %8s   %s\n", b.Name, b.TBCycles(), firstStr, osddStr, outcome)
	}
	fmt.Println("\nObservation (§5): benchmarks with small OSDD are repaired; bugs whose")
	fmt.Println("state corruption hides for hundreds of cycles (pairing) are not.")
}
