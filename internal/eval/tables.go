package eval

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/bv"
	"rtlrepair/internal/core"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/verilog"
)

// SuiteResults caches both tools' runs over the CirFix suite so several
// tables can share one evaluation pass.
type SuiteResults struct {
	RTL    map[string]*ToolRun
	CirFix map[string]*ToolRun
	Order  []string
}

// RunSuite evaluates both tools on the full CirFix suite.
func RunSuite(opts Options, withCirFix bool) *SuiteResults {
	res := &SuiteResults{RTL: map[string]*ToolRun{}, CirFix: map[string]*ToolRun{}}
	for _, b := range bench.CirFixSuite() {
		res.Order = append(res.Order, b.Name)
		res.RTL[b.Name] = RunRTLRepair(b, opts)
		if withCirFix {
			res.CirFix[b.Name] = RunCirFix(b, opts)
		}
	}
	return res
}

// Table1 summarizes correct/wrong/cannot counts with median and max
// runtimes, RTL-Repair vs CirFix (paper Table 1).
type Table1 struct {
	Rows [3]struct {
		Label             string
		RTLCount          int
		RTLMedian, RTLMax time.Duration
		CFCount           int
		CFMedian, CFMax   time.Duration
	}
	PaperRTL [3]int // the paper's counts for shape comparison: 16/2/14
}

// MakeTable1 aggregates suite results.
func MakeTable1(s *SuiteResults) *Table1 {
	t := &Table1{PaperRTL: [3]int{16, 2, 14}}
	labels := []string{"Correct Repairs", "Wrong Repairs", "Cannot Repair"}
	verdicts := []Verdict{VerdictCorrect, VerdictWrong, VerdictNone}
	for i := range labels {
		t.Rows[i].Label = labels[i]
		var rtlD, cfD durations
		for _, name := range s.Order {
			if r := s.RTL[name]; r != nil && r.Verdict == verdicts[i] {
				t.Rows[i].RTLCount++
				rtlD = append(rtlD, r.Duration)
			}
			if r := s.CirFix[name]; r != nil && r.Verdict == verdicts[i] {
				t.Rows[i].CFCount++
				cfD = append(cfD, r.Duration)
			}
		}
		t.Rows[i].RTLMedian, t.Rows[i].RTLMax = rtlD.median(), rtlD.max()
		t.Rows[i].CFMedian, t.Rows[i].CFMax = cfD.median(), cfD.max()
	}
	return t
}

func (t *Table1) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: RTL-Repair vs CirFix baseline (paper RTL-Repair counts: %d/%d/%d)\n",
		t.PaperRTL[0], t.PaperRTL[1], t.PaperRTL[2])
	fmt.Fprintf(&sb, "%-18s | %5s %10s %10s | %5s %10s %10s\n",
		"", "#rtl", "median", "max", "#cf", "median", "max")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-18s | %5d %10s %10s | %5d %10s %10s\n",
			r.Label, r.RTLCount, fmtDur(r.RTLMedian), fmtDur(r.RTLMax),
			r.CFCount, fmtDur(r.CFMedian), fmtDur(r.CFMax))
	}
	return sb.String()
}

// Table2Row is one OSDD evaluation row (paper Table 2).
type Table2Row struct {
	Name       string
	TBCycles   int
	FirstError int
	OSDD       string // number or "n/a"
	Window     string
	RTL        string
	CirFix     string
	PaperRTL   string
	PaperCF    string
}

// MakeTable2 computes the OSDD table. Unclocked designs (the two
// decoder/mux-style pure-comb ones still have OSDD 0; the paper excludes
// only non-clocked i2c entries, which our corpus models as clocked).
func MakeTable2(s *SuiteResults) []Table2Row {
	var rows []Table2Row
	for _, name := range s.Order {
		b := bench.ByName(name)
		row := Table2Row{Name: name, TBCycles: b.TBCycles(), FirstError: -1,
			OSDD: "n/a", PaperRTL: b.PaperRTLRepair, PaperCF: b.PaperCirFix}
		if r, firstErr, err := OSDDFor(b); err == nil {
			row.FirstError = firstErr
			if r.Defined {
				row.OSDD = fmt.Sprintf("%d", r.OSDD)
			}
		}
		if run := s.RTL[name]; run != nil {
			row.RTL = run.Verdict.Symbol()
			if run.Verdict != VerdictNone && run.Status == "repaired" {
				row.Window = fmt.Sprintf("[-%d .. %d]", run.Window[0], run.Window[1])
			}
		}
		if run := s.CirFix[name]; run != nil {
			row.CirFix = run.Verdict.Symbol()
		}
		rows = append(rows, row)
	}
	return rows
}

// Table2String renders Table 2.
func Table2String(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2: Output / State Divergence Delta (OSDD)\n")
	fmt.Fprintf(&sb, "%-12s %9s %10s %6s %12s %5s %5s | paper: %5s %5s\n",
		"benchmark", "TB cycles", "first err", "OSDD", "window", "rtlr", "cf", "rtlr", "cf")
	for _, r := range rows {
		fe := "-"
		if r.FirstError >= 0 {
			fe = fmt.Sprintf("%d", r.FirstError)
		}
		fmt.Fprintf(&sb, "%-12s %9d %10s %6s %12s %5s %5s | %12s %5s\n",
			r.Name, r.TBCycles, fe, r.OSDD, r.Window, r.RTL, r.CirFix,
			symbolOf(r.PaperRTL), symbolOf(r.PaperCF))
	}
	return sb.String()
}

func symbolOf(s string) string {
	switch s {
	case "ok":
		return "+"
	case "wrong":
		return "x"
	case "none":
		return "o"
	}
	return "?"
}

// Table3String renders the benchmark overview (paper Table 3).
func Table3String() string {
	var sb strings.Builder
	sb.WriteString("Table 3: Benchmark Overview\n")
	fmt.Fprintf(&sb, "%-22s %-60s %s\n", "project", "defect", "short name")
	for _, b := range bench.CirFixSuite() {
		fmt.Fprintf(&sb, "%-22s %-60s %s\n", b.Project, b.Defect, b.Name)
	}
	return sb.String()
}

// Table4Row is one correctness-evaluation row (paper Table 4).
type Table4Row struct {
	Name    string
	Tool    string
	Status  string
	Checks  Checks
	Changes int
	Overall Verdict
}

// MakeTable4 gathers the per-check verdicts for both tools.
func MakeTable4(s *SuiteResults) []Table4Row {
	var rows []Table4Row
	for _, name := range s.Order {
		for _, tool := range []string{"rtlrepair", "cirfix"} {
			var run *ToolRun
			if tool == "rtlrepair" {
				run = s.RTL[name]
			} else {
				run = s.CirFix[name]
			}
			if run == nil {
				continue
			}
			rows = append(rows, Table4Row{
				Name: name, Tool: tool, Status: run.Status,
				Checks: run.Checks, Changes: run.Changes, Overall: run.Verdict,
			})
		}
	}
	return rows
}

// Table4String renders Table 4.
func Table4String(rows []Table4Row) string {
	var sb strings.Builder
	sb.WriteString("Table 4: Repair Correctness Evaluation (+ pass, x fail, blank n/a)\n")
	fmt.Fprintf(&sb, "%-12s %-10s %-26s %3s %5s %6s %4s %8s %8s\n",
		"benchmark", "tool", "status", "tb", "gate", "event", "ext", "changes", "overall")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %-10s %-26s %3s %5s %6s %4s %8d %8s\n",
			r.Name, r.Tool, r.Status,
			r.Checks.Testbench.Symbol(), r.Checks.GateLevel.Symbol(),
			r.Checks.EventSim.Symbol(), r.Checks.Extended.Symbol(),
			r.Changes, r.Overall.Symbol())
	}
	return sb.String()
}

// Table5Row is one repair-speed row (paper Table 5).
type Table5Row struct {
	Name          string
	Preprocessing int
	PerTemplate   []TemplateCell
	BasicResult   string
	BasicTime     time.Duration
	FullResult    string
	FullTime      time.Duration
	CirFixResult  string
	CirFixTime    time.Duration
	Speedup       float64
}

// TemplateCell is one template's attempt in the no-early-exit run.
type TemplateCell struct {
	Template string
	Result   string // "k+" (changes+found), "o", "timeout"
	Time     time.Duration
}

// MakeTable5 runs the component analysis: each template without early
// exit, the basic synthesizer, the full tool and the baseline.
func MakeTable5(s *SuiteResults, opts Options) []Table5Row {
	var rows []Table5Row
	for _, name := range s.Order {
		b := bench.ByName(name)
		full := s.RTL[name]
		row := Table5Row{Name: name, Preprocessing: full.Fixes}
		for _, tr := range full.PerTemplate {
			if tr.State == core.AttemptSkipped {
				continue // never started: an earlier repair preempted it
			}
			cell := TemplateCell{Template: tr.Template, Time: tr.Duration}
			switch {
			case tr.Err != nil:
				cell.Result = "timeout"
			case tr.Found:
				cell.Result = fmt.Sprintf("%d+", tr.Changes)
			default:
				cell.Result = "o"
			}
			row.PerTemplate = append(row.PerTemplate, cell)
		}
		// Basic synthesizer ablation.
		basicOpts := opts
		basicOpts.Basic = true
		basic := RunRTLRepair(b, basicOpts)
		row.BasicResult = basic.Verdict.Symbol()
		row.BasicTime = basic.Duration
		row.FullResult = full.Verdict.Symbol()
		row.FullTime = full.Duration
		if cf := s.CirFix[name]; cf != nil {
			row.CirFixResult = cf.Verdict.Symbol()
			row.CirFixTime = cf.Duration
			if full.Duration > 0 {
				row.Speedup = float64(cf.Duration) / float64(full.Duration)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Table5String renders Table 5.
func Table5String(rows []Table5Row) string {
	var sb strings.Builder
	sb.WriteString("Table 5: Repair Speed Evaluation\n")
	fmt.Fprintf(&sb, "%-12s %4s | %-22s %-22s %-22s | %-14s %-14s %-14s %8s\n",
		"benchmark", "prep", "replace-literals", "add-guard", "cond-overwrite",
		"basic", "rtl-repair", "cirfix", "speedup")
	for _, r := range rows {
		cells := map[string]string{}
		for _, c := range r.PerTemplate {
			cells[c.Template] = fmt.Sprintf("%s %s", c.Result, fmtDur(c.Time))
		}
		fmt.Fprintf(&sb, "%-12s %4d | %-22s %-22s %-22s | %-14s %-14s %-14s %7.0fx\n",
			r.Name, r.Preprocessing,
			cells["Replace Literals"], cells["Add Guard"], cells["Conditional Overwrite"],
			fmt.Sprintf("%s %s", r.BasicResult, fmtDur(r.BasicTime)),
			fmt.Sprintf("%s %s", r.FullResult, fmtDur(r.FullTime)),
			fmt.Sprintf("%s %s", r.CirFixResult, fmtDur(r.CirFixTime)),
			r.Speedup)
	}
	return sb.String()
}

// Table6Row is one open-source-bug row (paper Table 6).
type Table6Row struct {
	Name     string
	Diff     string
	TBSteps  int
	Result   string
	Changes  int
	Time     time.Duration
	Quality  string
	Template string
	Paper    string
}

// MakeTable6 evaluates the open-source bug suite with the incremental
// (windowed) synthesizer and a 2-minute timeout, as in §6.4.
func MakeTable6(opts Options) []Table6Row {
	opts.RTLTimeout = 2 * time.Minute
	var rows []Table6Row
	for _, b := range bench.OsrcSuite() {
		run := RunRTLRepair(b, opts)
		row := Table6Row{
			Name:    b.Name,
			Diff:    fmt.Sprintf("+%d/-%d", b.DiffAdd, b.DiffDel),
			TBSteps: b.TBCycles(),
			Changes: run.Changes,
			Time:    run.Duration,
			Paper:   symbolOf(b.PaperRTLRepair),
		}
		switch {
		case run.Status == "timeout":
			row.Result = "timeout"
		case run.Verdict == VerdictNone:
			row.Result = "o"
		case run.Status == "no-repair-needed":
			row.Result = "x"
		default:
			row.Result = "+"
			row.Template = run.Template
			row.Quality = GradeRepair(b, run.Repaired)
		}
		rows = append(rows, row)
	}
	return rows
}

// Table6String renders Table 6.
func Table6String(rows []Table6Row) string {
	var sb strings.Builder
	sb.WriteString("Table 6: Open-Source Bug Repair (quality A=exact, B=partial, C=same expression, D=different)\n")
	fmt.Fprintf(&sb, "%-6s %-9s %8s %-8s %7s %10s %3s %-22s %s\n",
		"bug", "diff", "TB", "result", "changes", "time", "Q", "template", "paper")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-6s %-9s %8d %-8s %7d %10s %3s %-22s %s\n",
			r.Name, r.Diff, r.TBSteps, r.Result, r.Changes, fmtDur(r.Time),
			r.Quality, r.Template, r.Paper)
	}
	return sb.String()
}

// GradeRepair rates a repair on the paper's A–D scale by comparing it to
// the ground truth: A = behaviourally equivalent on extensive random
// stimulus, B = includes some of the ground truth's changed lines,
// C = changes the same lines the ground truth changes, D = changes a
// different part of the design.
func GradeRepair(b *bench.Benchmark, repaired *verilog.Module) string {
	if repaired == nil {
		return ""
	}
	if equivalentOnRandomStimulus(b, repaired) {
		return "A"
	}
	gtm, err := b.GroundTruthModule()
	if err != nil {
		return "D"
	}
	bm, err := b.BuggyModule()
	if err != nil {
		return "D"
	}
	buggySrc := verilog.Print(bm)
	gtChanged := changedLineSet(buggySrc, verilog.Print(gtm))
	repChanged := changedLineSet(buggySrc, verilog.Print(repaired))
	overlap := false
	for l := range repChanged {
		if gtChanged[l] {
			overlap = true
			break
		}
	}
	if !overlap {
		return "D"
	}
	// B: the repair reproduces at least one exact ground-truth line.
	gtLines := map[string]bool{}
	for _, l := range strings.Split(verilog.Print(gtm), "\n") {
		gtLines[strings.TrimSpace(l)] = true
	}
	buggyLines := map[string]bool{}
	for _, l := range strings.Split(buggySrc, "\n") {
		buggyLines[strings.TrimSpace(l)] = true
	}
	for _, l := range strings.Split(verilog.Print(repaired), "\n") {
		tl := strings.TrimSpace(l)
		if gtLines[tl] && !buggyLines[tl] {
			return "B"
		}
	}
	return "C"
}

// equivalentOnRandomStimulus co-simulates ground truth and repair on
// random inputs from a common reset-ish state.
func equivalentOnRandomStimulus(b *bench.Benchmark, repaired *verilog.Module) bool {
	gt, err := b.GroundTruthSystem()
	if err != nil {
		return false
	}
	lib, _ := b.LibModules()
	rep, _, err := synth.Elaborate(smt.NewContext(), repaired, synth.Options{Lib: lib})
	if err != nil {
		return false
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := sim.NewCycleSim(gt, sim.Zero, seed)
		r := sim.NewCycleSim(rep, sim.Zero, seed)
		rng := newDetRand(seed)
		for cycle := 0; cycle < 300; cycle++ {
			ins := map[string]bv.XBV{}
			for _, in := range b.Inputs {
				ins[in.Name] = bv.KU(in.Width, rng())
			}
			gOut := g.Step(ins)
			rOut := r.Step(ins)
			if cycle < 4 {
				continue // allow power-on divergence before reset settles
			}
			for _, o := range b.Outputs {
				ro, ok := rOut[o.Name]
				if !ok || !gOut[o.Name].SameAs(ro) {
					return false
				}
			}
		}
	}
	return true
}

// newDetRand returns a tiny deterministic generator (xorshift).
func newDetRand(seed int64) func() uint64 {
	x := uint64(seed)*2654435769 + 1
	return func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(time.Millisecond).String()
}

// QualitativeDiffs renders the Figure 8 / Figure 9-style repair diffs
// for the given benchmarks.
func QualitativeDiffs(names []string, opts Options) string {
	var sb strings.Builder
	sort.Strings(names)
	for _, name := range names {
		b := bench.ByName(name)
		if b == nil {
			continue
		}
		fmt.Fprintf(&sb, "=== %s: %s\n", b.Name, b.Defect)
		gtm, err1 := b.GroundTruthModule()
		bm, err2 := b.BuggyModule()
		if err1 != nil || err2 != nil {
			continue
		}
		fmt.Fprintf(&sb, "--- diff original vs. bug\n%s", ModuleDiff(gtm, bm))
		run := RunRTLRepair(b, opts)
		if run.Repaired != nil {
			fmt.Fprintf(&sb, "--- diff bug vs. our repair (%s, %d changes, %s)\n%s",
				run.Template, run.Changes, fmtDur(run.Duration), ModuleDiff(bm, run.Repaired))
		} else {
			fmt.Fprintf(&sb, "--- no repair (%s)\n", run.Status)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
