package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"rtlrepair/internal/obs"
)

// spanLayer maps each span name the engine emits to the per-layer
// metric its self time is charged to. Names missing here are charged to
// trace.unmapped_ms, so a new span shows up instead of vanishing.
var spanLayer = map[string]string{
	"sat.solve":     "sat.solve_ms",
	"encode":        "smt.encode_ms",
	"smt.check":     "smt.check_self_ms",
	"certify":       "smt.check_self_ms",
	"tsys.extend":   "tsys.extend_ms",
	"validate":      "sim.validate_ms",
	"concretize":    "sim.concretize_ms",
	"localize":      "analysis.localize_ms",
	"preprocess":    "lint.preprocess_ms",
	"elaborate":     "synth.elaborate_ms",
	"instrument":    "core.instrument_ms",
	"repair":        "core.self_ms",
	"portfolio":     "core.self_ms",
	"attempt":       "core.self_ms",
	"window":        "core.self_ms",
	"window-extra":  "core.self_ms",
	"core.frontend": "core.frontend_ms",
}

type spanLine struct {
	Type    string `json:"type"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Open    bool   `json:"open"`
}

// selfTimes charges every span's self time — its duration minus the
// union of its children's intervals — to its layer, in milliseconds.
// Only trees whose root started at or after fromUS (microseconds on the
// tracer's clock) count, so a run can exclude its warm-up.
func selfTimes(t *obs.Tracer, fromUS int64) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := t.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	var spans []spanLine
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var s spanLine
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("trace line: %w", err)
		}
		if s.Type != "span" {
			continue
		}
		if s.Open {
			return nil, fmt.Errorf("span %s (id %d) was never ended", s.Name, s.ID)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	byID := make(map[int]*spanLine, len(spans))
	kids := map[int][]*spanLine{}
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	root := func(s *spanLine) *spanLine {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s
	}
	out := map[string]float64{}
	for _, m := range engineLayers {
		out[m] = 0
	}
	for i := range spans {
		s := &spans[i]
		if root(s).StartUS < fromUS {
			continue
		}
		self := s.DurUS - covered(s, kids[s.ID])
		layer, ok := spanLayer[s.Name]
		if !ok {
			layer = "trace.unmapped_ms"
		}
		out[layer] += float64(self) / 1000
	}
	return out, nil
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent *spanLine, kids []*spanLine) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	end := parent.StartUS + parent.DurUS
	for _, k := range kids {
		lo, hi := max(k.StartUS, parent.StartUS), min(k.StartUS+k.DurUS, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// engineLayers are the span-timed layers of the repair engine, in the
// order the layer report lists them: every metric spanLayer charges,
// plus trace.unmapped_ms.
var engineLayers = []string{
	"sat.solve_ms", "smt.encode_ms", "smt.check_self_ms", "tsys.extend_ms",
	"sim.validate_ms", "sim.concretize_ms", "core.frontend_ms", "core.self_ms",
	"core.instrument_ms", "lint.preprocess_ms", "synth.elaborate_ms",
	"analysis.localize_ms", "trace.unmapped_ms",
}
