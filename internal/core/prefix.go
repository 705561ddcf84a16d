package core

import (
	"sync"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/tsys"
)

// PrefixCache is the shared encode prefix of one repair: the register
// states the unmodified design reaches after each trace prefix. Every
// portfolio attempt needs exactly these states to seed its window
// encodings — a template's instrumentation is behaviour-preserving at
// φ = 0, so the "all changes off" prefix simulation the synthesizer used
// to run per attempt is the same computation for all of them. The cache
// runs it once, over the frontend's elaborated system, with one
// persistent simulator that extends monotonically; attempts on any
// worker read completed snapshots without re-simulating.
//
// Safe for concurrent use. Snapshots are returned by reference and must
// be treated as read-only (the synthesizer already folds them into the
// encoding as constants).
type PrefixCache struct {
	mu    sync.Mutex
	sys   *tsys.System
	tr    *trace.Trace
	sim   *sim.CycleSim
	snaps []map[string]bv.XBV

	// widths indexes the cached system's state names to their widths,
	// for the compatibility check.
	widths map[string]int

	simulated int64 // cycles actually simulated (the work saved is attempts×cycles − this)
	hits      int64 // stateAt calls answered without simulating
}

// NewPrefixCache builds the prefix cache for one (design, trace,
// initial state) triple. init must assign every state (use Concretize).
// For an instrumented system, params assigns every synthesis variable
// (φ = 0, α = 0, so no change is enabled); it is nil for the
// uninstrumented elaborated system.
func NewPrefixCache(sys *tsys.System, tr *trace.Trace, init map[string]bv.XBV, params map[string]bv.BV) *PrefixCache {
	cs := sim.NewCycleSim(sys, sim.Zero, 0)
	for name, v := range init {
		cs.SetState(name, v)
	}
	cs.SetParams(params)
	widths := make(map[string]int, len(sys.States))
	for _, st := range sys.States {
		widths[st.Var.Name] = st.Var.Width
	}
	return &PrefixCache{
		sys:    sys,
		tr:     tr,
		sim:    cs,
		snaps:  []map[string]bv.XBV{cs.Snapshot()},
		widths: widths,
	}
}

// StateAt returns the register state after the first `cycles` trace rows
// of the unmodified design, extending the cache if needed.
func (p *PrefixCache) StateAt(cycles int) map[string]bv.XBV {
	p.mu.Lock()
	defer p.mu.Unlock()
	simulated := 0
	for len(p.snaps) <= cycles {
		p.sim.Step(p.inputsAt(len(p.snaps) - 1))
		p.snaps = append(p.snaps, p.sim.Snapshot())
		simulated++
	}
	if simulated == 0 {
		p.hits++
	}
	p.simulated += int64(simulated)
	return p.snaps[cycles]
}

func (p *PrefixCache) inputsAt(cycle int) map[string]bv.XBV {
	in := map[string]bv.XBV{}
	for i, sig := range p.tr.Inputs {
		in[sig.Name] = p.tr.InputRows[cycle][i]
	}
	return in
}

// Covers reports whether the cache's snapshots are valid start states
// for the given instrumented system: the state spaces must match
// exactly. A template that added or dropped registers (none of the
// current ones do) makes the attempt fall back to a private prefix
// cache rather than risk a wrong start state.
func (p *PrefixCache) Covers(sys *tsys.System) bool {
	if len(sys.States) != len(p.widths) {
		return false
	}
	for _, st := range sys.States {
		if w, ok := p.widths[st.Var.Name]; !ok || w != st.Var.Width {
			return false
		}
	}
	return true
}

// Counters returns (cycles simulated, calls served from cache).
func (p *PrefixCache) Counters() (simulated, hits int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.simulated, p.hits
}
