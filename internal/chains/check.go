package chains

import (
	"fmt"

	"signext/internal/dataflow"
	"signext/internal/ir"
)

// Check validates the chain structure's internal cross-consistency: every
// UD edge has a matching DU edge and vice versa, and every instruction the
// chains mention is still placed in a block of the function. Incremental
// patching (RemoveSameRegExt) must preserve all of these invariants; the
// guard verifier runs Check at phase boundaries to catch chain corruption
// before it licenses an unsound elimination.
func (c *Chains) Check() error {
	inFn := make([]*ir.Instr, c.Fn.NumInstrIDs()) // ID -> instruction placed under it
	c.Fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
		if ins.ID >= 0 && ins.ID < len(inFn) {
			inFn[ins.ID] = ins
		}
	})

	place := func(ins *ir.Instr) error {
		if ins.ID < 0 || ins.ID >= len(inFn) || inFn[ins.ID] != ins {
			return fmt.Errorf("chains: %s/%s not in function %s", ins, ins.Blk, c.Fn.Name)
		}
		return nil
	}
	duOf := func(d dataflow.DefSite) []UseSite {
		if d.IsParam() {
			return c.duParam[d.Param]
		}
		return c.DU(d.Instr)
	}

	// UD -> DU direction: every operand slot of every instruction the
	// chains hold.
	for id, ins := range c.placed {
		lo, hi := int(c.udOff[id]), int(c.udOff[id+1])
		if ins == nil || lo == hi {
			continue
		}
		if err := place(ins); err != nil {
			return err
		}
		if hi-lo > ins.NumUses() {
			return fmt.Errorf("chains: UD entry for out-of-range operand %d of %s", hi-lo-1, ins)
		}
		for op, defs := range c.ud[lo:hi] {
			use := UseSite{ins, op}
			for _, d := range defs {
				if !d.IsParam() {
					if err := place(d.Instr); err != nil {
						return err
					}
					if d.Instr.Dst != d.Reg {
						return fmt.Errorf("chains: def site %s claims reg %s", d.Instr, d.Reg)
					}
				} else if d.Param < 0 || d.Param >= c.Fn.NParams() {
					return fmt.Errorf("chains: def site for out-of-range param %d", d.Param)
				}
				if d.Reg != ins.UseAt(op) {
					return fmt.Errorf("chains: UD def of %s feeds operand %d of %s reading %s",
						d.Reg, op, ins, ins.UseAt(op))
				}
				if !containsUse(duOf(d), use) {
					return fmt.Errorf("chains: UD edge %v -> operand %d of %s lacks DU back-edge",
						d.Reg, op, ins)
				}
			}
		}
	}

	// DU -> UD direction.
	checkDU := func(d dataflow.DefSite, uses []UseSite) error {
		for _, u := range uses {
			if err := place(u.Instr); err != nil {
				return err
			}
			if u.OpIdx < 0 || u.OpIdx >= u.Instr.NumUses() {
				return fmt.Errorf("chains: DU entry for out-of-range operand %d of %s", u.OpIdx, u.Instr)
			}
			if !containsDef(c.UD(u.Instr, u.OpIdx), d) {
				return fmt.Errorf("chains: DU edge to operand %d of %s lacks UD back-edge", u.OpIdx, u.Instr)
			}
		}
		return nil
	}
	for id, uses := range c.du {
		ins := c.placed[id]
		if ins == nil || uses == nil {
			continue
		}
		if err := place(ins); err != nil {
			return err
		}
		if err := checkDU(dataflow.DefSite{Instr: ins, Param: -1, Reg: ins.Dst}, uses); err != nil {
			return err
		}
	}
	for p, uses := range c.duParam {
		if err := checkDU(dataflow.DefSite{Param: p, Reg: ir.Reg(p)}, uses); err != nil {
			return err
		}
	}
	return nil
}

// DropUDEdge removes one reaching definition from the UD list of operand op
// of ins WITHOUT patching the DU side — a deliberately unsound mutation.
// It exists for the guard's fault injection, which proves Check detects
// exactly this class of chain damage; it reports whether there was an edge
// to drop.
func (c *Chains) DropUDEdge(ins *ir.Instr, op int) bool {
	k, ok := c.OperandSlot(ins, op)
	if !ok || len(c.ud[k]) == 0 {
		return false
	}
	c.ud[k] = c.ud[k][1:]
	return true
}
