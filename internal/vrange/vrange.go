// Package vrange implements the value-range analysis the paper's array
// subscript handling (section 3) depends on: Theorems 2-4 need conditions of
// the form "0 <= i or j <= 0x7fffffff" or "maxlen-1-0x7fffffff <= i or j",
// which "can be determined at compile time using one of the value range
// analysis techniques [4, 7]".
//
// Ranges describe the semantic value of a definition: the low W bits of the
// destination register interpreted as a signed W-bit integer. This quantity
// is well defined even when the register's upper bits are dirty, and it is
// invariant under insertion or removal of 32-bit sign extensions, so ranges
// computed once per phase remain valid throughout the elimination phase.
package vrange

import (
	"math"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/dataflow"
	"signext/internal/ir"
)

// Range is an inclusive interval of signed values. Lo > Hi encodes bottom
// (no information yet / unreachable).
type Range struct {
	Lo, Hi int64
}

// Bottom is the empty range.
func Bottom() Range { return Range{1, 0} }

// Full32 is the full signed 32-bit range.
func Full32() Range { return Range{math.MinInt32, math.MaxInt32} }

// Full64 is the full signed 64-bit range.
func Full64() Range { return Range{math.MinInt64, math.MaxInt64} }

// IsBottom reports whether the range is empty.
func (r Range) IsBottom() bool { return r.Lo > r.Hi }

// Const returns the singleton range.
func Const(v int64) Range { return Range{v, v} }

// Union returns the smallest interval containing both ranges.
func (r Range) Union(o Range) Range {
	if r.IsBottom() {
		return o
	}
	if o.IsBottom() {
		return r
	}
	return Range{min64(r.Lo, o.Lo), max64(r.Hi, o.Hi)}
}

// Intersect returns the interval intersection.
func (r Range) Intersect(o Range) Range {
	if r.IsBottom() || o.IsBottom() {
		return Bottom()
	}
	return Range{max64(r.Lo, o.Lo), min64(r.Hi, o.Hi)}
}

// Within reports whether every value in r lies in [lo, hi]. A bottom range
// is vacuously within any interval.
func (r Range) Within(lo, hi int64) bool {
	if r.IsBottom() {
		return true
	}
	return r.Lo >= lo && r.Hi <= hi
}

// NonNeg reports whether the range is known non-negative (and bounded by the
// signed 32-bit maximum), i.e. the paper's "0 <= x <= 0x7fffffff".
func (r Range) NonNeg() bool { return r.Within(0, math.MaxInt32) }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// shlExact returns v<<n and whether the shift is exact in int64 (round
// trips without losing bits). Exact endpoint shifts make the whole interval
// shift exact: |v·2^n| is bounded by a representable endpoint product.
func shlExact(v int64, n uint) (int64, bool) {
	s := v << n
	return s, s>>n == v
}

// Analysis holds the fixpoint solution for one function.
//
// Its tables are slices indexed by instruction ID, operand slot (from the
// chains) and block ID, all sized at Compute time. An instruction created
// later has no range, and its operands are answered without memoization.
type Analysis struct {
	fn     *ir.Func
	ch     *chains.Chains
	info   *cfg.Info
	mach   ir.Machine
	maxLen int64
	defs   []defState    // instruction ID -> fixpoint state of its destination
	opMemo []operandMemo // operand slot -> dominating conditions that apply
	sites  [][]regSites  // block ID -> condSites memo, one entry per register
	visit  []uint32      // block ID -> stamp of the last regReachesWithoutD visit
	stamp  uint32
	stack  []*ir.Block
}

// defState is one definition's range plus its widening counters.
type defState struct {
	r              Range
	seen           bool // r holds a value
	bumpLo, bumpHi uint8
}

// operandMemo caches, for one operand, the branch conditions that refine it
// at its instruction; nil sites when none do or an earlier definition in the
// block blocks them.
type operandMemo struct {
	done  bool
	sites []condSite
}

// regSites caches condSites for one register at one block.
type regSites struct {
	reg   ir.Reg
	sites []condSite
}

const widenAfter = 8

// Compute runs the analysis. maxLen is the language's maximum array length
// (the paper's maxlen; 0x7fffffff for Java). info supplies the control-flow
// facts used to refine ranges with dominating branch conditions — the role
// played by symbolic range propagation in the paper's section 3.
func Compute(fn *ir.Func, ch *chains.Chains, info *cfg.Info, mach ir.Machine, maxLen int64) *Analysis {
	a := &Analysis{
		fn:     fn,
		ch:     ch,
		info:   info,
		mach:   mach,
		maxLen: maxLen,
		defs:   make([]defState, fn.NumInstrIDs()),
	}
	if a.maxLen == 0 {
		a.maxLen = math.MaxInt32
	}
	for pass := 0; pass < 60; pass++ {
		changed := false
		fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
			if !ins.HasDst() {
				return
			}
			nr := a.transfer(ins)
			d := &a.defs[ins.ID]
			old, seen := d.r, d.seen
			if seen {
				nr = nr.Union(old) // monotone growth
			}
			if !seen || nr != old {
				// Widen only the moving bound, so stable bounds (a loop
				// counter's zero floor) survive widening.
				full := a.fullFor(ins.W)
				if seen && nr.Lo < old.Lo {
					d.bumpLo++
					if d.bumpLo > widenAfter {
						nr.Lo = full.Lo
					}
				}
				if seen && nr.Hi > old.Hi {
					d.bumpHi++
					if d.bumpHi > widenAfter {
						nr.Hi = full.Hi
					}
				}
				if !seen || nr != old {
					d.r, d.seen = nr, true
					changed = true
				}
			}
		})
		if !changed {
			break
		}
	}
	// Narrowing: widening overshoots moving bounds (a counter capped by a
	// branch still gets its Hi widened to +inf once it grows for more than
	// widenAfter passes). With the fixpoint converged, recomputing each
	// transfer over the final operand ranges and intersecting recovers the
	// precise interval; every stored range remains an over-approximation by
	// induction, so this is sound.
	for pass := 0; pass < 3; pass++ {
		changed := false
		fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
			if !ins.HasDst() {
				return
			}
			d := &a.defs[ins.ID]
			nr := a.transfer(ins).Intersect(d.r)
			if !nr.IsBottom() && nr != d.r {
				d.r = nr
				changed = true
			}
		})
		if !changed {
			break
		}
	}
	return a
}

func (a *Analysis) fullFor(w ir.Width) Range {
	if w == ir.W64 {
		return Full64()
	}
	return Full32()
}

// OfDef returns the range of the definition d.
func (a *Analysis) OfDef(d dataflow.DefSite) Range {
	if d.IsParam() {
		p := a.fn.Params[d.Param]
		if p.Float || p.Ref {
			return Full64()
		}
		return a.fullFor(p.W)
	}
	if r, ok := a.OfDefRange(d.Instr); ok {
		return r
	}
	// Not yet visited by the fixpoint: optimistic bottom, so cyclic
	// definitions (loop counters) converge to their least range instead of
	// starting at top.
	return Bottom()
}

// OfDefRange returns the computed range of an instruction's destination and
// whether one exists.
func (a *Analysis) OfDefRange(ins *ir.Instr) (Range, bool) {
	if ins.ID < 0 || ins.ID >= len(a.defs) || !a.defs[ins.ID].seen {
		return Range{}, false
	}
	return a.defs[ins.ID].r, true
}

// OfOperand returns the union of the ranges of every definition reaching the
// given operand.
func (a *Analysis) OfOperand(ins *ir.Instr, op int) Range {
	defs := a.ch.UD(ins, op)
	if len(defs) == 0 {
		return a.fullFor(ir.W64) // uninitialized: no information
	}
	r := Bottom()
	for _, d := range defs {
		r = r.Union(a.OfDef(d))
	}
	return r
}

// condSite is one branch condition that provably constrains a register at a
// query block: the branch t (conditional terminator of its block), which
// operand side carries the register, and whether the constraint is the
// branch condition or its negation.
type condSite struct {
	t       *ir.Instr
	side    int // operand index of the constrained register
	negated bool
}

// OfOperandAt returns the operand's range refined by every branch condition
// that dominates the instruction: an edge D→S contributes when S dominates
// the query block, S's other predecessors are back edges (dominated by S),
// the branch compares the same register, and no semantic definition of the
// register can reach the query without re-passing D. This recovers the
// loop-bound facts ("i < n" inside a for body, across inner loops) that the
// paper obtains from symbolic range propagation [4, 7].
//
// Same-register 32-bit extensions and dummy markers preserve the semantic
// value our ranges describe, so they do not count as definitions here.
func (a *Analysis) OfOperandAt(ins *ir.Instr, op int) Range {
	base := a.OfOperand(ins, op)
	if a.info == nil || ins.Blk == nil {
		return base
	}
	for _, site := range a.operandSites(ins, op) {
		cond := site.t.Cond
		if site.negated {
			cond = cond.Negate()
		}
		other := a.OfOperand(site.t, 1-site.side)
		base = refineByCond(base, cond, site.side == 1, other, site.t.W)
	}
	return base
}

// operandSites returns the dominating branch conditions that apply to
// operand op of ins. Semantic definitions of the register earlier in the
// query block invalidate every one of them. The answer is memoized per
// operand: block layout is stable while the analysis is alive.
func (a *Analysis) operandSites(ins *ir.Instr, op int) []condSite {
	k, memo := a.ch.OperandSlot(ins, op)
	if memo {
		if a.opMemo == nil {
			a.opMemo = make([]operandMemo, a.ch.NumOperandSlots())
		}
		if m := a.opMemo[k]; m.done {
			return m.sites
		}
	}
	reg := ins.UseAt(op)
	var sites []condSite
	blocked := false
	for _, x := range ins.Blk.Instrs {
		if x == ins {
			break
		}
		if semanticDef(x, reg) {
			blocked = true
			break
		}
	}
	if !blocked {
		sites = a.condSites(ins.Blk, reg)
	}
	if memo {
		a.opMemo[k] = operandMemo{done: true, sites: sites}
	}
	return sites
}

// semanticDef reports whether ins changes the semantic (low-32-bit signed)
// value of reg.
func semanticDef(ins *ir.Instr, reg ir.Reg) bool {
	if !ins.HasDst() || ins.Dst != reg {
		return false
	}
	switch ins.Op {
	case ir.OpExtDummy:
		return false
	case ir.OpExt:
		// ext.32 rewrites only the upper half; narrower extensions change
		// the 32-bit value.
		return !(ins.W == ir.W32 && ins.Srcs[0] == reg)
	}
	return true
}

// condSites computes (and caches — the structure is invariant during a
// fixpoint) the dominating branch conditions applicable to reg at block B.
func (a *Analysis) condSites(b *ir.Block, reg ir.Reg) []condSite {
	if a.sites == nil {
		a.sites = make([][]regSites, len(a.info.IDom))
	}
	for _, rs := range a.sites[b.ID] {
		if rs.reg == reg {
			return rs.sites
		}
	}
	var out []condSite
	for d := b; d != nil; d = a.idom(d) {
		t := d.Term()
		if t == nil || t.Op != ir.OpBr || len(d.Succs) != 2 || d.Succs[0] == d.Succs[1] {
			continue
		}
		for side := 0; side < 2; side++ {
			if t.Srcs[side] != reg {
				continue
			}
			for edge := 0; edge < 2; edge++ {
				s := d.Succs[edge]
				if !a.info.Dominates(s, b) {
					continue
				}
				// The edge must be the region's only entry: every other
				// predecessor of S is a back edge from within S's region.
				entryOK := true
				for _, p := range s.Preds {
					if p != d && !a.info.Dominates(s, p) {
						entryOK = false
					}
				}
				if !entryOK {
					continue
				}
				if a.regReachesWithoutD(b, d, reg) {
					continue // a definition can reach the query bypassing D
				}
				out = append(out, condSite{t: t, side: side, negated: edge == 1})
			}
		}
	}
	a.sites[b.ID] = append(a.sites[b.ID], regSites{reg, out})
	return out
}

// idom returns d's immediate dominator, or nil at the entry (its own
// dominator) and at unreached blocks.
func (a *Analysis) idom(d *ir.Block) *ir.Block {
	if p := a.info.IDom[d.ID]; p != d {
		return p
	}
	return nil
}

// regReachesWithoutD reports whether some semantic definition of reg reaches
// block b along a path that does not pass through d (in which case d's
// branch condition may be stale at b). The query block's own instructions
// are checked separately by the caller.
func (a *Analysis) regReachesWithoutD(b, d *ir.Block, reg ir.Reg) bool {
	// Backward reachability from b in the CFG with d removed, looking for
	// blocks containing semantic defs of reg. b itself is scanned in full if
	// a cycle re-reaches it: a definition anywhere in b then lies between d
	// and the query on some d-free path.
	if a.visit == nil {
		a.visit = make([]uint32, len(a.info.IDom))
	}
	// Visited blocks carry this query's stamp, so the table is cleared only
	// when the stamp wraps.
	if a.stamp++; a.stamp == 0 {
		clear(a.visit)
		a.stamp = 1
	}
	stack := a.pushPreds(a.stack[:0], b, d)
	found := false
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, insX := range x.Instrs {
			if semanticDef(insX, reg) {
				found = true
				break
			}
		}
		if found {
			break
		}
		stack = a.pushPreds(stack, x, d)
	}
	a.stack = stack[:0]
	return found
}

// pushPreds appends x's predecessors other than d that the current
// regReachesWithoutD query has not visited yet.
func (a *Analysis) pushPreds(stack []*ir.Block, x, d *ir.Block) []*ir.Block {
	for _, p := range x.Preds {
		if p != d && a.visit[p.ID] != a.stamp {
			a.visit[p.ID] = a.stamp
			stack = append(stack, p)
		}
	}
	return stack
}

// refineByCond intersects base with the constraint "x cond other" (or
// "other cond x" when mirrored), for a width-w integer compare.
func refineByCond(base Range, cond ir.Cond, mirrored bool, other Range, w ir.Width) Range {
	if other.IsBottom() {
		return base
	}
	if mirrored {
		// other cond x  ==  x cond' other
		switch cond {
		case ir.CondLT:
			cond = ir.CondGT
		case ir.CondLE:
			cond = ir.CondGE
		case ir.CondGT:
			cond = ir.CondLT
		case ir.CondGE:
			cond = ir.CondLE
		case ir.CondULT:
			cond = ir.CondUGT
		case ir.CondULE:
			cond = ir.CondUGE
		case ir.CondUGT:
			cond = ir.CondULT
		case ir.CondUGE:
			cond = ir.CondULE
		}
	}
	max := int64(math.MaxInt64)
	min := int64(math.MinInt64)
	switch cond {
	case ir.CondEQ:
		return base.Intersect(other)
	case ir.CondNE:
		return base
	case ir.CondLT:
		if other.Hi < max {
			return base.Intersect(Range{min, other.Hi - 1})
		}
	case ir.CondLE:
		return base.Intersect(Range{min, other.Hi})
	case ir.CondGT:
		if other.Lo > min {
			return base.Intersect(Range{other.Lo + 1, max})
		}
	case ir.CondGE:
		return base.Intersect(Range{other.Lo, max})
	case ir.CondULT, ir.CondULE:
		// An unsigned upper bound by a value known within the signed
		// positive half pins the sign bit to zero (the bounds-check fact).
		limit := int64(math.MaxInt32)
		if w == ir.W64 {
			limit = math.MaxInt64
		}
		if other.Within(0, limit) {
			hi := other.Hi
			if cond == ir.CondULT {
				hi--
			}
			return base.Intersect(Range{0, hi})
		}
	}
	return base
}

// ConstOperand reports whether operand op of ins is a known constant.
func (a *Analysis) ConstOperand(ins *ir.Instr, op int) (int64, bool) {
	r := a.OfOperand(ins, op)
	if !r.IsBottom() && r.Lo == r.Hi {
		return r.Lo, true
	}
	return 0, false
}

func (a *Analysis) transfer(ins *ir.Instr) Range {
	w := ins.W
	full := a.fullFor(w)
	src := func(k int) Range { return a.OfOperandAt(ins, k).Intersect(Full64()) }
	switch ins.Op {
	case ir.OpConst:
		return Const(ins.Const)
	case ir.OpMov:
		return src(0)
	case ir.OpExt:
		// The semantic 32-bit value of ext.W is sext_W of the operand's low
		// W bits; when the operand already fits in W bits the value is
		// unchanged.
		s := src(0)
		lim := Range{-(1 << (w - 1)), 1<<(w-1) - 1}
		if w == ir.W32 {
			// ext.32 leaves the low 32 bits alone: the W32 semantic value
			// is exactly the operand's.
			return s
		}
		if s.Within(lim.Lo, lim.Hi) {
			return s
		}
		return lim
	case ir.OpExtDummy:
		// Array-access postcondition: the index's semantic value was in
		// [0, maxlen-1] (section 3, predicate LS).
		return src(0).Intersect(Range{0, a.maxLen - 1})
	case ir.OpZext:
		if w == ir.W64 {
			return src(0)
		}
		return Range{0, int64(w.Mask())}
	case ir.OpAdd:
		return a.addRange(src(0), src(1), w)
	case ir.OpSub:
		s1 := src(1)
		if s1.IsBottom() {
			return Bottom()
		}
		neg := Range{-s1.Hi, -s1.Lo}
		if s1.Lo == math.MinInt64 {
			neg = Full64()
		}
		return a.addRange(src(0), neg, w)
	case ir.OpMul:
		x, y := src(0), src(1)
		if x.IsBottom() || y.IsBottom() {
			return Bottom()
		}
		lo, hi, ok := mulBounds(x, y)
		if !ok {
			return full
		}
		r := Range{lo, hi}
		if !r.Within(full.Lo, full.Hi) {
			return full
		}
		return r
	case ir.OpNeg:
		s := src(0)
		if s.IsBottom() {
			return Bottom()
		}
		if s.Lo == full.Lo { // -MinInt wraps
			return full
		}
		return Range{-s.Hi, -s.Lo}
	case ir.OpNot:
		s := src(0)
		if s.IsBottom() {
			return Bottom()
		}
		return Range{^s.Hi, ^s.Lo}
	case ir.OpAnd:
		x, y := src(0), src(1)
		if x.IsBottom() || y.IsBottom() {
			return Bottom()
		}
		// x & y with a non-negative operand is bounded by it.
		hi := int64(math.MaxInt64)
		known := false
		if x.NonNeg() || (w == ir.W64 && x.Within(0, math.MaxInt64)) {
			hi = min64(hi, x.Hi)
			known = true
		}
		if y.NonNeg() || (w == ir.W64 && y.Within(0, math.MaxInt64)) {
			hi = min64(hi, y.Hi)
			known = true
		}
		if known {
			return Range{0, hi}
		}
		return full
	case ir.OpOr, ir.OpXor:
		x, y := src(0), src(1)
		if x.IsBottom() || y.IsBottom() {
			return Bottom()
		}
		if x.Within(0, full.Hi) && y.Within(0, full.Hi) {
			return Range{0, full.Hi}
		}
		return full
	case ir.OpShl:
		x, y := src(0), src(1)
		if x.IsBottom() || y.IsBottom() {
			return Bottom()
		}
		if y.Within(0, int64(w)-1) {
			// Each endpoint shift is checked for int64 overflow by round
			// trip; a result interval that can leave the W-bit signed range
			// wraps at the width boundary, so only an in-range interval is
			// usable.
			lo, okLo := shlExact(x.Lo, uint(y.Lo))
			hi, okHi := shlExact(x.Hi, uint(y.Hi))
			if x.Lo < 0 {
				// A negative lower bound moves further down as the shift
				// grows.
				lo, okLo = shlExact(x.Lo, uint(y.Hi))
			}
			if x.Hi < 0 {
				// An all-negative range peaks at the smallest shift.
				hi, okHi = shlExact(x.Hi, uint(y.Lo))
			}
			if okLo && okHi {
				r := Range{lo, hi}
				if r.Within(full.Lo, full.Hi) {
					return r
				}
			}
		}
		return full
	case ir.OpLShr:
		x, y := src(0), src(1)
		if x.IsBottom() || y.IsBottom() {
			return Bottom()
		}
		// A dividend with known-zero upper bits shifts like an unsigned
		// quantity whose interval is exact: this is the fact the magic
		// division rewrite both consumes (proving its operand range) and
		// produces (its >>u S result is the quotient range).
		if x.Within(0, full.Hi) && y.Within(0, int64(w)-1) {
			return Range{x.Lo >> uint(y.Hi), x.Hi >> uint(y.Lo)}
		}
		if y.Within(1, int64(w)-1) {
			// Any one-or-more-bit logical shift clears the sign bit: the
			// result is bounded by the shifted all-ones pattern even when
			// nothing is known about the value.
			if w == ir.W64 {
				return Range{0, int64(^uint64(0) >> uint(y.Lo))}
			}
			return Range{0, int64(w.Mask() >> uint(y.Lo))}
		}
		// A zero shift leaves the (possibly negative) low bits intact.
		return full
	case ir.OpAShr:
		x, y := src(0), src(1)
		if x.IsBottom() || y.IsBottom() {
			return Bottom()
		}
		lo, hi := min64(x.Lo, 0), max64(x.Hi, 0)
		if y.Lo == y.Hi && y.Lo >= 0 && y.Lo < int64(w) {
			// Known shift amount: exact interval shift (sound for signed
			// values; >> rounds toward minus infinity on both bounds).
			lo, hi = x.Lo>>uint(y.Lo), x.Hi>>uint(y.Lo)
		} else if x.NonNeg() && y.Lo >= 0 && y.Lo < int64(w) {
			hi = x.Hi >> uint(y.Lo)
			lo = 0
		}
		return Range{lo, hi}.Intersect(full)
	case ir.OpDiv:
		x, y := src(0), src(1)
		if x.Within(0, full.Hi) && y.Within(1, full.Hi) {
			return Range{0, x.Hi}
		}
		return full
	case ir.OpRem:
		x, y := src(0), src(1)
		if x.Within(0, full.Hi) && y.Within(1, full.Hi) {
			return Range{0, y.Hi - 1}
		}
		return full
	case ir.OpLoadG, ir.OpArrLoad:
		if ins.Float {
			return Full64()
		}
		if w == ir.W64 {
			return Full64()
		}
		if a.mach == ir.PPC64 {
			return Range{-(1 << (w - 1)), 1<<(w-1) - 1}
		}
		// IA64 zero-extends: for sub-32-bit widths the 32-bit semantic
		// value is the unsigned cell value.
		if w == ir.W32 {
			return Full32()
		}
		return Range{0, int64(w.Mask())}
	case ir.OpArrLen, ir.OpNewArr:
		return Range{0, a.maxLen}
	case ir.OpD2I:
		return Full32()
	case ir.OpD2L:
		return Full64()
	default:
		return a.fullFor(ir.W64)
	}
}

// addRange models a W-bit addition: exact interval arithmetic unless the
// result can leave the W-bit signed range, in which case it wraps and we give
// up.
func (a *Analysis) addRange(x, y Range, w ir.Width) Range {
	if x.IsBottom() || y.IsBottom() {
		return Bottom()
	}
	full := a.fullFor(w)
	lo, lok := addNoOverflow(x.Lo, y.Lo)
	hi, hok := addNoOverflow(x.Hi, y.Hi)
	if !lok || !hok {
		return full
	}
	r := Range{lo, hi}
	if !r.Within(full.Lo, full.Hi) {
		return full
	}
	return r
}

func addNoOverflow(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func mulBounds(x, y Range) (int64, int64, bool) {
	vals := [4]int64{}
	cands := [4][2]int64{{x.Lo, y.Lo}, {x.Lo, y.Hi}, {x.Hi, y.Lo}, {x.Hi, y.Hi}}
	for k, c := range cands {
		p := c[0] * c[1]
		if c[0] != 0 && (p/c[0] != c[1]) {
			return 0, 0, false
		}
		vals[k] = p
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min64(lo, v), max64(hi, v)
	}
	return lo, hi, true
}
