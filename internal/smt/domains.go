package smt

import (
	"fmt"
	"strings"

	"rtlrepair/internal/bv"
)

// This file defines the abstract value lattice used by the
// abstract-interpretation framework (see absint.go): a reduced product
// of two numeric domains over one bit-vector width.
//
//   - known bits: a mask of bit positions whose value is the same in
//     every model of the asserted constraints, plus those values;
//   - unsigned intervals: an inclusive [Lo, Hi] unsigned range.
//
// normalize() is the reduction operator of the product: after every
// transfer the known bits bound the interval (unknowns all-zero /
// all-one) and the interval's common high prefix becomes known bits.

// Fact is the abstract value of a term: the product of the known-bits
// and unsigned-interval domains. The zero Fact is invalid; use
// topFact/constFact.
type Fact struct {
	Known bv.BV // mask of known bit positions
	Val   bv.BV // bit values on Known positions (zero elsewhere)
	Lo    bv.BV // inclusive unsigned lower bound
	Hi    bv.BV // inclusive unsigned upper bound
}

// topFact is the no-information element of the lattice.
func topFact(w int) Fact {
	return Fact{Known: bv.Zero(w), Val: bv.Zero(w), Lo: bv.Zero(w), Hi: bv.Ones(w)}
}

// constFact is the singleton element for value v.
func constFact(v bv.BV) Fact {
	return Fact{Known: bv.Ones(v.Width()), Val: v, Lo: v, Hi: v}
}

func boolFact(b bool) Fact { return constFact(bv.FromBool(b)) }

// TopFact is the exported no-information element (tsys.AbstractReach
// seeds uninitialized state and free inputs with it).
func TopFact(w int) Fact { return topFact(w) }

// ConstFact is the exported singleton element for value v.
func ConstFact(v bv.BV) Fact { return constFact(v) }

// Same reports channel-wise equality of two facts (not lattice
// equivalence — normalize first for that; every Fact produced by this
// package is already normalized).
func (f Fact) Same(o Fact) bool { return f.sameAs(o) }

// Width returns the bit width the fact describes.
func (f Fact) Width() int { return f.Known.Width() }

// IsConst reports whether the fact pins every bit.
func (f Fact) IsConst() bool { return f.Known.IsOnes() }

// Admits reports whether the concrete value v is allowed by the fact —
// the soundness predicate the fuzzer checks, covering both members of
// the product.
func (f Fact) Admits(v bv.BV) bool {
	return v.And(f.Known).Eq(f.Val) && !v.Ult(f.Lo) && !f.Hi.Ult(v)
}

// String renders the fact for diagnostics (rtllint -explain).
func (f Fact) String() string {
	if f.IsConst() {
		return fmt.Sprintf("= 0x%s", f.Val.HexString())
	}
	var parts []string
	if !f.Known.IsZero() {
		parts = append(parts, fmt.Sprintf("bits(mask 0x%s = 0x%s)", f.Known.HexString(), f.Val.HexString()))
	}
	if !f.Lo.IsZero() || !f.Hi.IsOnes() {
		parts = append(parts, fmt.Sprintf("u∈[0x%s, 0x%s]", f.Lo.HexString(), f.Hi.HexString()))
	}
	if len(parts) == 0 {
		return "⊤"
	}
	return strings.Join(parts, " ∧ ")
}

// sameAs reports channel-wise equality of two facts (BV holds a word
// slice, so == is unavailable).
func (f Fact) sameAs(o Fact) bool {
	return f.Known.Eq(o.Known) && f.Val.Eq(o.Val) && f.Lo.Eq(o.Lo) && f.Hi.Eq(o.Hi)
}

// IsTop reports whether the fact carries no information.
func (f Fact) IsTop() bool {
	return f.Known.IsZero() && f.Lo.IsZero() && f.Hi.IsOnes()
}

func umin(a, b bv.BV) bv.BV {
	if b.Ult(a) {
		return b
	}
	return a
}

func umax(a, b bv.BV) bv.BV {
	if a.Ult(b) {
		return b
	}
	return a
}

// normalize is the reduction operator of the product: it cross-tightens
// the two domains and repairs an empty interval. An empty intersection
// can only arise when the asserted constraints themselves are
// unsatisfiable (each domain alone is a sound over-approximation); any
// abstract value is then vacuously sound, so we collapse to keep the
// invariant Lo ≤ Hi.
func (f Fact) normalize() Fact {
	w := f.Width()
	// Channels left unset in a partial literal (width-0 zero values)
	// initialize to their top element.
	if f.Lo.Width() != w {
		f.Lo = bv.Zero(w)
	}
	if f.Hi.Width() != w {
		f.Hi = bv.Ones(w)
	}
	f.Val = f.Val.And(f.Known)
	// Known bits ⇔ unsigned interval: unknowns all-zero / all-one bound
	// the range; the common high prefix of Lo and Hi is fixed.
	f.Lo = umax(f.Lo, f.Val)
	f.Hi = umin(f.Hi, f.Val.Or(f.Known.Not()))
	if f.Hi.Ult(f.Lo) {
		f.Hi = f.Lo
	}
	diff := f.Lo.Xor(f.Hi)
	if diff.IsZero() {
		return constFact(f.Lo)
	}
	h := highestBit(diff)
	prefix := bv.Zero(w)
	for i := h + 1; i < w; i++ {
		prefix = prefix.WithBit(i, true)
	}
	f.Known = f.Known.Or(prefix)
	f.Val = f.Val.Or(f.Lo.And(prefix))
	return f
}

func highestBit(v bv.BV) int {
	for i := v.Width() - 1; i >= 0; i-- {
		if v.Bit(i) {
			return i
		}
	}
	return -1
}

// intersect combines two sound facts about the same term. On a bit
// conflict (only possible when the constraints are unsatisfiable) the
// receiver's value wins — see normalize for why that stays sound.
func (f Fact) intersect(o Fact) Fact {
	f.Val = f.Val.Or(o.Val.And(o.Known).And(f.Known.Not()))
	f.Known = f.Known.Or(o.Known)
	f.Lo = umax(f.Lo, o.Lo)
	f.Hi = umin(f.Hi, o.Hi)
	return f.normalize()
}

// Join is the least upper bound: the result admits every value either
// fact admits. Used by abstract reachability over the transition system
// (tsys.AbstractReach), where state facts from successive cycles merge.
func (f Fact) Join(o Fact) Fact {
	known := f.Known.And(o.Known).And(f.Val.Xor(o.Val).Not())
	g := Fact{
		Known: known,
		Val:   f.Val.And(known),
		Lo:    umin(f.Lo, o.Lo),
		Hi:    umax(f.Hi, o.Hi),
	}
	return g.normalize()
}

// Widen extrapolates the interval bounds of f that moved since prev to
// their extremes. The interval domain has chains of length 2^w, so the
// reachability fixpoint applies Widen after a few iterations to force
// termination; known bits have chains of length ≤ w and need no
// widening.
func (f Fact) Widen(prev Fact) Fact {
	w := f.Width()
	if !f.Lo.Eq(prev.Lo) {
		f.Lo = bv.Zero(w)
	}
	if !f.Hi.Eq(prev.Hi) {
		f.Hi = bv.Ones(w)
	}
	return f.normalize()
}

// addKnown runs the known-bits transfer of a ripple-carry addition
// a + b + carryIn: sum bits stay known for the low-order run where both
// operand bits and the carry are known.
func addKnown(a, b Fact, carryIn bool) (known, val bv.BV) {
	w := a.Width()
	known, val = bv.Zero(w), bv.Zero(w)
	carry := carryIn
	for i := 0; i < w; i++ {
		if !a.Known.Bit(i) || !b.Known.Bit(i) {
			break
		}
		ab, bb := a.Val.Bit(i), b.Val.Bit(i)
		s := ab != bb != carry
		carry = (ab && bb) || (ab && carry) || (bb && carry)
		known = known.WithBit(i, true)
		val = val.WithBit(i, s)
	}
	return known, val
}
