// Package chains builds and maintains UD/DU chains over the IR. The paper's
// elimination phase (section 2.3) is driven entirely by these chains:
// AnalyzeUSE walks DU chains forward, AnalyzeDEF and AnalyzeARRAY walk UD
// chains backward. Because every compiler-generated sign extension has the
// same-register form "v = ext.W v", removing one is a local chain-patching
// operation rather than a full recomputation.
package chains

import (
	"signext/internal/cfg"
	"signext/internal/dataflow"
	"signext/internal/ir"
)

// UseSite identifies one operand of one instruction.
type UseSite struct {
	Instr *ir.Instr
	OpIdx int // index as in ir.Instr.UseAt
}

// Chains is the UD/DU chain structure for a single function.
//
// Storage is dense, indexed by ir.Instr.ID. Every operand of every
// instruction placed at Build time owns one slot of ud; the slots of
// instruction id are udOff[id] to udOff[id+1]. All UD lists are sub-slices
// of one backing array, and all DU lists of another, each capped at its own
// length so the appends of RemoveSameRegExt copy instead of overwriting a
// neighbour's list.
type Chains struct {
	Fn *ir.Func

	// placed[id] is the instruction that held ID id at Build time, nil
	// once RemoveSameRegExt deletes it. Every lookup checks it, so an
	// instruction created (or moved in) after Build has no chains.
	placed  []*ir.Instr
	udOff   []int32
	ud      [][]dataflow.DefSite // operand slot -> reaching definitions
	du      [][]UseSite          // instruction ID -> uses it reaches; nil when none
	duParam [][]UseSite
}

// Build computes fresh chains for fn.
func Build(fn *ir.Func, info *cfg.Info) *Chains {
	return FromReaching(fn, dataflow.ComputeReaching(fn, info))
}

// FromReaching builds chains from a reaching-definitions solution r of fn
// that is still current, so a caller that already solved it (the verifier)
// does not solve it twice.
func FromReaching(fn *ir.Func, r *dataflow.Reaching) *Chains {
	n := fn.NumInstrIDs()
	c := &Chains{
		Fn:      fn,
		placed:  make([]*ir.Instr, n),
		udOff:   make([]int32, n+1),
		du:      make([][]UseSite, n),
		duParam: make([][]UseSite, fn.NParams()),
	}
	fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
		c.placed[ins.ID] = ins
		c.udOff[ins.ID+1] = int32(ins.NumUses())
	})
	for id := 0; id < n; id++ {
		c.udOff[id+1] += c.udOff[id]
	}
	slots := int(c.udOff[n])
	c.ud = make([][]dataflow.DefSite, slots)

	// Walk the function, appending the definitions reaching each use to
	// one backing array. end[slot] marks where the use's list stops; it
	// starts where the previous use in walk order stopped. Count each
	// definition's uses on the way.
	defs := make([]dataflow.DefSite, 0, slots)
	end := make([]int32, slots)
	nDU := make([]int32, len(r.Defs))
	r.Walk(func(ins *ir.Instr, reaching dataflow.BitSet) {
		ins.ForEachUse(func(k int, reg ir.Reg) {
			for _, dn := range r.ByReg[reg] {
				if reaching.Has(dn) {
					defs = append(defs, r.Defs[dn])
					nDU[dn]++
				}
			}
			end[int(c.udOff[ins.ID])+k] = int32(len(defs))
		})
	})

	// Carve the DU lists out of one backing array, in definition-number
	// order, then replay the walk to fill them: each definition lists its
	// uses in walk order.
	uses := make([]UseSite, len(defs))
	next := make([]int32, len(r.Defs)) // definition number -> fill position
	at := int32(0)
	for dn, cnt := range nDU {
		next[dn] = at
		if cnt == 0 {
			continue
		}
		list := uses[at : at+cnt : at+cnt]
		if d := r.Defs[dn]; d.IsParam() {
			c.duParam[d.Param] = list
		} else {
			c.du[d.Instr.ID] = list
		}
		at += cnt
	}
	start := int32(0)
	fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
		for k := 0; k < ins.NumUses(); k++ {
			stop := end[int(c.udOff[ins.ID])+k]
			if start == stop {
				continue
			}
			list := defs[start:stop:stop]
			c.ud[int(c.udOff[ins.ID])+k] = list
			for _, d := range list {
				dn := d.Param // parameters are definitions 0..NParams-1
				if !d.IsParam() {
					dn = r.DefNum[d.Instr.ID]
				}
				uses[next[dn]] = UseSite{ins, k}
				next[dn]++
			}
			start = stop
		}
	})
	return c
}

// OperandSlot returns the dense index, in [0, NumOperandSlots()), of
// operand op of ins, or false when ins was not placed at Build time (or has
// since been removed) or has no such operand. It indexes the UD lists, and
// analyses built over the chains use it to keep per-operand tables without
// maps.
func (c *Chains) OperandSlot(ins *ir.Instr, op int) (int, bool) {
	if !c.tracked(ins) || op < 0 {
		return 0, false
	}
	k := int(c.udOff[ins.ID]) + op
	return k, k < int(c.udOff[ins.ID+1])
}

// NumOperandSlots returns the number of operand slots.
func (c *Chains) NumOperandSlots() int { return len(c.ud) }

// tracked reports whether ins is the instruction the chains hold under its
// ID.
func (c *Chains) tracked(ins *ir.Instr) bool {
	return ins.ID >= 0 && ins.ID < len(c.placed) && c.placed[ins.ID] == ins
}

// UD returns the definitions reaching operand op of ins.
func (c *Chains) UD(ins *ir.Instr, op int) []dataflow.DefSite {
	if k, ok := c.OperandSlot(ins, op); ok {
		return c.ud[k]
	}
	return nil
}

// DU returns the uses reached by the definition made by ins.
func (c *Chains) DU(ins *ir.Instr) []UseSite {
	if c.tracked(ins) {
		return c.du[ins.ID]
	}
	return nil
}

// DUOfParam returns the uses reached by parameter p's entry definition.
func (c *Chains) DUOfParam(p int) []UseSite { return c.duParam[p] }

func containsDef(ds []dataflow.DefSite, d dataflow.DefSite) bool {
	for _, x := range ds {
		if x == d {
			return true
		}
	}
	return false
}

func containsUse(us []UseSite, u UseSite) bool {
	for _, x := range us {
		if x == u {
			return true
		}
	}
	return false
}

func removeDef(ds []dataflow.DefSite, d dataflow.DefSite) []dataflow.DefSite {
	out := ds[:0]
	for _, x := range ds {
		if x != d {
			out = append(out, x)
		}
	}
	return out
}

func removeUse(us []UseSite, u UseSite) []UseSite {
	out := us[:0]
	for _, x := range us {
		if x != u {
			out = append(out, x)
		}
	}
	return out
}

// RemoveSameRegExt deletes a same-register extension or dummy
// ("v = ext.W v" / "v = ext.dummy.W v") from its block and patches the chains
// so every use formerly fed by e is fed by the definitions that fed e.
func (c *Chains) RemoveSameRegExt(e *ir.Instr) {
	if (e.Op != ir.OpExt && e.Op != ir.OpExtDummy) || e.Dst != e.Srcs[0] {
		panic("chains: RemoveSameRegExt on non same-register extension")
	}
	eDef := dataflow.DefSite{Instr: e, Param: -1, Reg: e.Dst}
	eUse := UseSite{e, 0}

	feeding := append([]dataflow.DefSite(nil), c.UD(e, 0)...)
	feeding = removeDef(feeding, eDef) // drop a self-loop, if any
	downstream := append([]UseSite(nil), c.DU(e)...)
	downstream = removeUse(downstream, eUse)

	// Re-point each downstream use at the feeding definitions.
	for _, u := range downstream {
		k, ok := c.OperandSlot(u.Instr, u.OpIdx)
		if !ok {
			continue
		}
		ds := removeDef(c.ud[k], eDef)
		for _, d := range feeding {
			if !containsDef(ds, d) {
				ds = append(ds, d)
			}
		}
		c.ud[k] = ds
	}
	// Extend each feeding definition's DU set with the downstream uses and
	// drop its edge to e itself.
	for _, d := range feeding {
		var us *[]UseSite
		if d.IsParam() {
			us = &c.duParam[d.Param]
		} else if c.tracked(d.Instr) {
			us = &c.du[d.Instr.ID]
		} else {
			continue
		}
		*us = removeUse(*us, eUse)
		for _, u := range downstream {
			if !containsUse(*us, u) {
				*us = append(*us, u)
			}
		}
	}
	if k, ok := c.OperandSlot(e, 0); ok {
		c.ud[k] = nil
		c.du[e.ID] = nil
		c.placed[e.ID] = nil
	}
	e.Blk.Remove(e)
}
