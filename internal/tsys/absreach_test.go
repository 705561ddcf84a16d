package tsys_test

import (
	"math/rand"
	"testing"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/tsys"
)

// evenCounter builds an 8-bit counter that only ever holds even values:
// count' = ite(reset, 0, count + 2), init 0. The known-bits domain must
// prove bit 0 == 0 as a reachability invariant (the adder transfer keeps
// the low bit known), and the invariant must survive interval widening.
func evenCounter(ctx *smt.Context) *tsys.System {
	reset := ctx.Var("reset", 1)
	count := ctx.Var("count", 8)
	next := ctx.Ite(reset, ctx.ConstU(8, 0), ctx.Add(count, ctx.ConstU(8, 2)))
	return &tsys.System{
		Name:   "even_counter",
		Inputs: []*smt.Term{reset},
		States: []tsys.State{{Var: count, Init: ctx.ConstU(8, 0), Next: next}},
		Outputs: []tsys.Output{
			{Name: "count", Expr: count},
			{Name: "lsb", Expr: ctx.Extract(count, 0, 0)},
		},
	}
}

func TestAbstractReachEvenInvariant(t *testing.T) {
	ctx := smt.NewContext()
	sys := evenCounter(ctx)
	r := tsys.AbstractReach(sys, 0)
	if !r.Converged {
		t.Fatalf("fixpoint did not converge in %d iterations", r.Iters)
	}
	f := r.State["count"]
	if f.Admits(bv.FromWords(8, []uint64{3})) {
		t.Fatalf("count fact %v admits odd value 3; even invariant lost", f)
	}
	if !f.Admits(bv.FromWords(8, []uint64{254})) {
		t.Fatalf("count fact %v rejects reachable value 254", f)
	}
	lsb := r.Output["lsb"]
	if !lsb.IsConst() || !lsb.Val.IsZero() {
		t.Fatalf("lsb output fact %v; want constant 0", lsb)
	}
}

// TestAbstractReachSimSound drives random executions of the counter
// system and checks every simulated state and output value is admitted
// by its reachability fact.
func TestAbstractReachSimSound(t *testing.T) {
	ctx := smt.NewContext()
	sys := evenCounter(ctx)
	r := tsys.AbstractReach(sys, 0)
	rng := rand.New(rand.NewSource(7))
	cs := sim.NewCycleSim(sys, sim.Zero, 0)
	for cycle := 0; cycle < 200; cycle++ {
		ins := map[string]bv.XBV{
			"reset": bv.K(bv.FromWords(1, []uint64{uint64(rng.Intn(2))})),
		}
		outs := cs.Peek(ins)
		for name, f := range r.Output {
			v := outs[name]
			if !v.HasUnknown() && !f.Admits(v.Val) {
				t.Fatalf("cycle %d: output %s value %s not admitted by %v",
					cycle, name, v.Val.HexString(), f)
			}
		}
		cs.Step(ins)
		for name, f := range r.State {
			v := cs.State(name)
			if !v.HasUnknown() && !f.Admits(v.Val) {
				t.Fatalf("cycle %d: state %s value %s not admitted by %v",
					cycle, name, v.Val.HexString(), f)
			}
		}
	}
}
