package obs

import (
	"flag"
	"fmt"
	"os"
)

// CLI bundles the standard observability flags shared by the rtlrepair
// commands (-trace-out, -chrome-out, -metrics-out, -pprof, -cpuprofile,
// -memprofile) and the lifecycle around them: RegisterFlags before
// flag.Parse, Start after it, Finish before exit.
type CLI struct {
	TraceOut   string
	ChromeOut  string
	MetricsOut string
	RingOut    string
	PprofAddr  string
	CPUProfile string
	MemProfile string

	Tracer  *Tracer
	Metrics *Registry
	Rec     *Recorder
	prof    *Profiling
}

// RegisterFlags installs the observability flags on a flag set.
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.TraceOut, "trace-out", "", "write a JSONL span trace to this file")
	fs.StringVar(&c.ChromeOut, "chrome-out", "", "write a Chrome trace_event file (chrome://tracing, Perfetto)")
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write the metrics registry as JSON to this file")
	fs.StringVar(&c.RingOut, "ring-out", "", "write the flight-recorder ring as JSONL to this file on exit")
	fs.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
}

// Start creates the tracer/registry demanded by the flags and starts the
// profilers. The tracer — the exporters' span sink — exists only when a
// trace output was requested; spans reach the flight recorder (the
// process-wide Default ring) flag or no flag, and -ring-out only
// controls whether its contents are dumped at exit.
func (c *CLI) Start() error {
	if c.TraceOut != "" || c.ChromeOut != "" {
		c.Tracer = New()
	}
	if c.MetricsOut != "" {
		c.Metrics = NewRegistry()
	}
	c.Rec = Default()
	var err error
	c.prof, err = StartProfiling(c.PprofAddr, c.CPUProfile, c.MemProfile)
	return err
}

// Scope returns the root scope commands thread through the pipeline.
func (c *CLI) Scope() Scope { return Scope{Tracer: c.Tracer, Metrics: c.Metrics, Rec: c.Rec} }

// Finish writes every requested output file and stops the profilers.
func (c *CLI) Finish() error {
	write := func(path string, f func(*os.File) error) error {
		if path == "" {
			return nil
		}
		out, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := f(out); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	}
	if err := write(c.TraceOut, func(f *os.File) error { return c.Tracer.WriteJSONL(f) }); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := write(c.ChromeOut, func(f *os.File) error { return c.Tracer.WriteChromeTrace(f) }); err != nil {
		return fmt.Errorf("chrome-out: %w", err)
	}
	if err := write(c.MetricsOut, func(f *os.File) error { return c.Metrics.WriteJSON(f) }); err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	if err := write(c.RingOut, func(f *os.File) error { return c.Rec.WriteRingJSONL(f) }); err != nil {
		return fmt.Errorf("ring-out: %w", err)
	}
	return c.prof.Stop()
}
