// Package guard is the pipeline's production guardrail subsystem: deep IR
// verification at phase boundaries, panic-safe phase execution with
// structured PhaseError reports, a differential oracle that runs optimized
// code against the unoptimized reference, and a deterministic fault
// injector that proves each guardrail actually fires.
//
// The design mirrors how JIT tiers degrade in production: a broken or
// crashing optimization must never take down compilation. It is detected,
// reported, and disabled for the offending function only; the function
// falls back to the correct Convert64-only code and compilation succeeds.
package guard

import (
	"fmt"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/dataflow"
	"signext/internal/ir"
)

// VerifyFunc performs the deep per-phase verification: the structural
// checks of ir.Verify, CFG edge consistency, def-before-use via reaching
// definitions, width/type agreement on every extension, and UD/DU chain
// cross-consistency on freshly built chains. It is the paper-pipeline
// analogue of an -d:checkir debug build, cheap enough to leave on under
// jit.Options.Checked.
func VerifyFunc(fn *ir.Func, machine ir.Machine) error {
	if err := fn.Verify(); err != nil {
		return err
	}
	if err := verifyCFG(fn); err != nil {
		return err
	}
	if err := verifyExtWidths(fn); err != nil {
		return err
	}
	// One reaching-definitions solution serves both the def-before-use
	// check and the chains.
	r := dataflow.ComputeReaching(fn, cfg.Compute(fn))
	if err := verifyDefBeforeUse(fn, r); err != nil {
		return err
	}
	ch := chains.FromReaching(fn, r)
	if err := ch.Check(); err != nil {
		return fmt.Errorf("%s: %w", fn.Name, err)
	}
	return nil
}

// verifyCFG checks edge consistency beyond ir.Verify's symmetric-presence
// test: every successor/predecessor belongs to this function, edge
// multiplicities agree in both directions, and branch/jump targets are the
// recorded successors.
func verifyCFG(fn *ir.Func) error {
	member := map[*ir.Block]bool{}
	for _, b := range fn.Blocks {
		member[b] = true
	}
	count := func(bs []*ir.Block, x *ir.Block) int {
		n := 0
		for _, b := range bs {
			if b == x {
				n++
			}
		}
		return n
	}
	for _, b := range fn.Blocks {
		for _, s := range b.Succs {
			if !member[s] {
				return fmt.Errorf("%s/%s: successor %s not in function", fn.Name, b, s)
			}
			if count(b.Succs, s) != count(s.Preds, b) {
				return fmt.Errorf("%s: edge %s->%s multiplicity mismatch (%d succ, %d pred)",
					fn.Name, b, s, count(b.Succs, s), count(s.Preds, b))
			}
		}
		for _, p := range b.Preds {
			if !member[p] {
				return fmt.Errorf("%s/%s: predecessor %s not in function", fn.Name, b, p)
			}
			if count(p.Succs, b) != count(b.Preds, p) {
				return fmt.Errorf("%s: edge %s->%s multiplicity mismatch (%d succ, %d pred)",
					fn.Name, p, b, count(p.Succs, b), count(b.Preds, p))
			}
		}
	}
	return nil
}

// verifyExtWidths checks width and type agreement on every extension: the
// canonical operand shape, a register kind that is an integer on both
// sides, and (for the compiler-generated same-register form) agreement
// between the ext width and the kind of value the register can carry — a
// 32-bit register extended from 64 bits, or an ext.dummy of width 64, are
// phase bugs, not representable machine code.
func verifyExtWidths(fn *ir.Func) error {
	kinds := ir.Kinds(fn)
	var err error
	fn.ForEachInstr(func(b *ir.Block, ins *ir.Instr) {
		if err != nil {
			return
		}
		switch ins.Op {
		case ir.OpExt, ir.OpZext, ir.OpExtDummy:
		default:
			return
		}
		// ir.Verify already bounds W to {8,16,32}; check shape and kinds.
		if ins.NSrcs != 1 || !ins.HasDst() {
			err = fmt.Errorf("%s/%s: malformed extension %s", fn.Name, b, ins)
			return
		}
		for _, r := range []ir.Reg{ins.Dst, ins.Srcs[0]} {
			if k := kinds[r]; k == ir.KFloat || k == ir.KRef {
				err = fmt.Errorf("%s/%s: %s extends non-integer register %s", fn.Name, b, ins, r)
				return
			}
		}
		if kinds[ins.Dst] == ir.KInt32 && ins.W > ir.W32 {
			err = fmt.Errorf("%s/%s: %s wider than its 32-bit destination", fn.Name, b, ins)
		}
	})
	return err
}

// verifyDefBeforeUse checks, via the reaching-definitions solution r, that
// every integer/float use in a reachable block is fed by at least one
// definition (an instruction or an incoming parameter). A use with no
// reaching definition means a phase moved or deleted a definition it should
// not have — the classic symptom of a bad elimination order.
func verifyDefBeforeUse(fn *ir.Func, r *dataflow.Reaching) error {
	var err error
	r.Walk(func(ins *ir.Instr, reaching dataflow.BitSet) {
		if err != nil || ins.Op == ir.OpExtDummy {
			return // markers assert, they do not read
		}
		ins.ForEachUse(func(_ int, reg ir.Reg) {
			if err != nil {
				return
			}
			for _, dn := range r.ByReg[reg] {
				if reaching.Has(dn) {
					return
				}
			}
			err = fmt.Errorf("%s/%s: %s reads %s with no reaching definition",
				fn.Name, ins.Blk, ins, reg)
		})
	})
	return err
}

// VerifyProgram runs VerifyFunc over every function and checks that every
// global access names one of the program's global cells and that every call
// to a function of the program passes exactly its parameters. (A call to an
// unknown function is a runtime trap, not malformed IR.)
func VerifyProgram(p *ir.Program, machine ir.Machine) error {
	for _, fn := range p.Funcs {
		if err := VerifyFunc(fn, machine); err != nil {
			return err
		}
		var err error
		fn.ForEachInstr(func(b *ir.Block, ins *ir.Instr) {
			if err != nil {
				return
			}
			switch ins.Op {
			case ir.OpLoadG, ir.OpStoreG:
				if ins.Const < 0 || ins.Const >= int64(p.NGlobals) {
					err = fmt.Errorf("%s/%s: %s addresses global %d of %d", fn.Name, b, ins, ins.Const, p.NGlobals)
				}
			case ir.OpCall:
				if callee := p.Func(ins.Callee); callee != nil && len(ins.Args) != callee.NParams() {
					err = fmt.Errorf("%s/%s: %s passes %d arguments to %d parameters", fn.Name, b, ins, len(ins.Args), callee.NParams())
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
