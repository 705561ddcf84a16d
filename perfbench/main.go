// Command perfbench is the repository benchmark. It runs one workload
// of the repair engine or the repair service, checks every verdict
// against testdata/repair_goldens, and prints one JSON result line. See
// README.md for the workloads and metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench -workload solve|encode|serve -seed N -seconds S -trace 0|1 [-rate R]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	runTime  time.Duration
	trace    bool
	rate     float64 // serve: offered requests per second
	setups   int     // set-ups per run; setup_s is their median
	conns    int     // serve: client connections
	scratch  string  // directory for the run's temporary files
	log      func(string, ...any)
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int
	behind            bool // the serve load generator fell behind its schedule
	m                 metrics
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: solve, encode or serve")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 30, "serve: length of the timed phase (a batch run measures one pass)")
		traceOn  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		rate     = flag.Float64("rate", 0, "serve: offered requests per second (required for serve)")
		scratch  = flag.String("scratch", ".bench_build/tmp", "directory for temporary files")
	)
	flag.Parse()
	cfg := config{
		workload: *workload,
		seed:     *seed,
		runTime:  time.Duration(*seconds) * time.Second,
		trace:    *traceOn == 1,
		rate:     *rate,
		setups:   3,
		conns:    runtime.NumCPU(),
		scratch:  *scratch,
		log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if cfg.trace {
		// setup_s is not reported by a traced run.
		cfg.setups = 1
	}
	res, err := run(cfg, *traceOn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(cfg config, traceFlag int) (*result, error) {
	if traceFlag != 0 && traceFlag != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	if cfg.runTime <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	spec, err := loadSpec()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	var out *outcome
	switch cfg.workload {
	case "solve", "encode":
		out, err = runBatch(cfg)
	case "serve":
		if cfg.rate <= 0 {
			return nil, errors.New("serve needs -rate")
		}
		out, err = runServe(cfg)
	default:
		return nil, fmt.Errorf("unknown -workload %q (want solve, encode or serve)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	specs := spec.EndToEnd
	if cfg.trace {
		specs = spec.PerLayer
		zeroMissing(out.m, specs, "serve.", "fleet.", "loadgen.")
	}
	vals, err := out.m.emit(specs)
	if err != nil {
		return nil, err
	}
	cfg.log("%s: attempted %d, failed %d", cfg.workload, out.attempted, out.failed)
	return &result{
		Correct:   out.failed == 0 && !out.behind,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   vals,
	}, nil
}

// zeroMissing reports 0 for the per-layer metrics under the given
// prefixes that a workload does not exercise (the batch workloads have
// no serving layers).
func zeroMissing(m metrics, specs []metricSpec, prefixes ...string) {
	for _, s := range specs {
		if _, ok := m[s.Name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(s.Name, p) {
				m[s.Name] = 0
			}
		}
	}
}
