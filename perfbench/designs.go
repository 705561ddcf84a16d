package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/core"
	"rtlrepair/internal/eval"
	"rtlrepair/internal/serve"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

// goldenDir holds the pinned verdict of every corpus design, relative to
// the repository root the benchmark runs from.
const goldenDir = "testdata/repair_goldens"

// design is one corpus design with everything a repair of it needs.
type design struct {
	name   string
	top    *verilog.Module
	lib    map[string]*verilog.Module
	tr     *trace.Trace
	seed   int64  // the golden seed: eval.ChooseSeed(b, 1)
	golden string // pinned verdict rendering
	body   []byte // the golden serve request, JSON-encoded
	// served is the golden rendering as the service must answer the
	// golden request: its change positions count lines from the start of
	// the request source, which puts the library modules first.
	served string
}

// loadDesign parses a corpus design, records its testbench trace,
// picks the golden seed and reads the pinned verdict.
func loadDesign(name string) (*design, error) {
	b := bench.ByName(name)
	if b == nil {
		return nil, fmt.Errorf("unknown design %q", name)
	}
	top, err := b.BuggyModule()
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", name, err)
	}
	lib, err := b.LibModules()
	if err != nil {
		return nil, fmt.Errorf("%s: lib: %w", name, err)
	}
	// Record the testbench from the ground truth here rather than through
	// b.Trace, which caches it, so every set-up pays for it.
	gt, err := b.GroundTruthSystem()
	if err != nil {
		return nil, fmt.Errorf("%s: ground truth: %w", name, err)
	}
	tr := sim.RecordTrace(sim.NewCycleSim(gt, sim.KeepX, 0), b.Inputs, b.Outputs, b.Stimulus())
	golden, err := os.ReadFile(filepath.Join(goldenDir, name+".golden"))
	if err != nil {
		return nil, fmt.Errorf("%s: golden: %w", name, err)
	}
	d := &design{name: name, top: top, lib: lib, tr: tr,
		seed: eval.ChooseSeed(b, 1), golden: string(golden)}
	if strings.Contains(d.golden, "status: timeout") {
		return nil, fmt.Errorf("%s: golden is a timeout, not byte-comparable", name)
	}
	return d, nil
}

// loadServeDesign is loadDesign plus the golden serve request: the
// library modules (sorted by name), then the design, its trace as CSV,
// the golden seed.
func loadServeDesign(name string) (*design, error) {
	d, err := loadDesign(name)
	if err != nil {
		return nil, err
	}
	b := bench.ByName(name)
	var src strings.Builder
	names := make([]string, 0, len(b.Lib))
	for lib := range b.Lib {
		names = append(names, lib)
	}
	sort.Strings(names)
	for _, lib := range names {
		src.WriteString(b.Lib[lib])
		src.WriteString("\n")
	}
	libLines := strings.Count(src.String(), "\n")
	src.WriteString(b.Buggy)
	var csv bytes.Buffer
	if err := d.tr.WriteCSV(&csv); err != nil {
		return nil, fmt.Errorf("%s: trace: %w", name, err)
	}
	d.body, err = json.Marshal(&serve.Request{Source: src.String(), Trace: csv.String(),
		Options: serve.ReqOptions{Seed: d.seed}})
	if err != nil {
		return nil, err
	}
	d.served = shiftChangeLines(d.golden, libLines)
	return d, nil
}

// changePos matches the "at line:col" source position of a change line.
var changePos = regexp.MustCompile(`( at )(\d+)(:\d+)`)

// shiftChangeLines moves the positions of a rendering's change lines
// down by n lines.
func shiftChangeLines(rendering string, n int) string {
	if n == 0 {
		return rendering
	}
	lines := strings.SplitAfter(rendering, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "change: ") {
			continue
		}
		lines[i] = changePos.ReplaceAllStringFunc(l, func(m string) string {
			g := changePos.FindStringSubmatch(m)
			line, _ := strconv.Atoi(g[2]) // \d+ always parses
			return g[1] + strconv.Itoa(line+n) + g[3]
		})
	}
	return strings.Join(lines, "")
}

// renderResult renders a batch verdict the way the golden files do.
func renderResult(res *core.Result) string {
	var repaired string
	if res.Repaired != nil {
		repaired = verilog.Print(res.Repaired)
	}
	return render(res.Status.String(), res.Template, res.Changes, res.ChangeDescs, repaired)
}

// renderWire renders a served verdict the way the golden files do.
func renderWire(rr *serve.RepairResult) string {
	return render(rr.Status, rr.Template, rr.Changes, rr.ChangeDescs, rr.Repaired)
}

func render(status, template string, changes int, descs []string, repaired string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "status: %s\ntemplate: %s\nchanges: %d\n", status, template, changes)
	for _, d := range descs {
		fmt.Fprintf(&sb, "change: %s\n", d)
	}
	sb.WriteString("----\n")
	sb.WriteString(repaired)
	return sb.String()
}

// verdictDiff describes how a verdict rendering differs from the
// expected one: the first differing line of each.
func verdictDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("verdict differs from the golden at line %d: want %q, got %q", i+1, wl, gl)
		}
	}
	return "verdict matches the golden"
}
