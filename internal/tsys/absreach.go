package tsys

import (
	"sort"

	"rtlrepair/internal/smt"
)

// ReachFacts is the result of abstract reachability over a transition
// system: for every state variable and output, a known-bits × interval
// fact
// that over-approximates the values it can take in ANY cycle of ANY
// execution from the initial states (inputs unconstrained).
type ReachFacts struct {
	// State maps a state variable name to its invariant fact.
	State map[string]smt.Fact
	// Output maps an output name to its invariant fact, computed in the
	// fixpoint state environment.
	Output map[string]smt.Fact
	// Iters is the number of fixpoint iterations performed.
	Iters int
	// Converged reports that the facts stopped changing before the
	// iteration cap (widening forces this for all practical systems, so
	// false indicates a cap set too low).
	Converged bool
}

// widenAfter is the iteration at which interval widening kicks in: the
// finite-chain known-bits domain settles within a few iterations on
// real designs, and the interval chains of length 2^w are
// extrapolated to their extremes once past it.
const widenAfter = 8

// AbstractReach runs the abstract domains to a fixpoint
// over the transition relation: state facts start at the initial-value
// singletons (top when uninitialized) and are joined with the abstract
// next-state image each iteration until nothing changes. Inputs and
// params are unconstrained (top) every cycle. maxIters caps the
// iteration count (<= 0 picks a default that, with widening, is
// effectively never hit). The same facts that the window solvers learn
// per-encoding are derived here once per design, feeding the fact-driven
// lint pass (constant nets, dead branches, unreachable case arms).
func AbstractReach(sys *System, maxIters int) *ReachFacts {
	if maxIters <= 0 {
		maxIters = 64
	}
	fc := smt.NewFactCache()

	// Seed: init expressions evaluated with an empty environment.
	seed := smt.NewAbs()
	seed.SetCache(fc)
	cur := map[*smt.Term]smt.Fact{}
	for _, st := range sys.States {
		if st.Init != nil {
			cur[st.Var] = seed.Fact(st.Init)
		} else {
			cur[st.Var] = smt.TopFact(st.Var.Width)
		}
	}

	res := &ReachFacts{State: map[string]smt.Fact{}, Output: map[string]smt.Fact{}}
	env := func() *smt.Abs {
		a := smt.NewAbs()
		a.SetCache(fc)
		for sv, f := range cur {
			a.Learn(sv, f)
		}
		return a
	}

	// Deterministic iteration order (map order must not leak into facts;
	// Join is commutative but widening thresholds could differ).
	states := append([]State(nil), sys.States...)
	sort.Slice(states, func(i, j int) bool { return states[i].Var.Name < states[j].Var.Name })

	for iter := 1; iter <= maxIters; iter++ {
		res.Iters = iter
		a := env()
		next := map[*smt.Term]smt.Fact{}
		changed := false
		for _, st := range states {
			prev := cur[st.Var]
			nf := prev.Join(a.Fact(st.Next))
			if iter >= widenAfter {
				nf = nf.Widen(prev)
			}
			next[st.Var] = nf
			if !nf.Same(prev) {
				changed = true
			}
		}
		cur = next
		if !changed {
			res.Converged = true
			break
		}
	}

	final := env()
	for _, st := range sys.States {
		res.State[st.Var.Name] = cur[st.Var]
	}
	for _, o := range sys.Outputs {
		res.Output[o.Name] = final.Fact(o.Expr)
	}
	return res
}

// FactOf evaluates the fact of an arbitrary expression over the
// system's variables in the fixpoint state environment. Used by the
// lint pass to judge branch conditions and case selectors.
func (r *ReachFacts) FactOf(sys *System, t *smt.Term) smt.Fact {
	a := smt.NewAbs()
	for _, st := range sys.States {
		if f, ok := r.State[st.Var.Name]; ok {
			a.Learn(st.Var, f)
		}
	}
	return a.Fact(t)
}
