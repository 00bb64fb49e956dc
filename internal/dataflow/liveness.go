package dataflow

import (
	"signext/internal/cfg"
	"signext/internal/ir"
)

// Liveness holds per-block live-register sets.
type Liveness struct {
	Fn      *ir.Func
	In, Out []BitSet // block ID -> live registers at block entry/exit
}

// ComputeLiveness solves backward liveness over the registers of fn.
func ComputeLiveness(fn *ir.Func, info *cfg.Info) *Liveness {
	n := fn.NReg
	sets := newBlockSets(fn, 4, n)
	use, def := sets[0], sets[1]
	lv := &Liveness{Fn: fn, In: sets[2], Out: sets[3]}
	for _, b := range fn.Blocks {
		u, d := use[b.ID], def[b.ID]
		for _, ins := range b.Instrs {
			ins.ForEachUse(func(_ int, r ir.Reg) {
				if !d.Has(int(r)) {
					u.Set(int(r))
				}
			})
			if ins.HasDst() {
				d.Set(int(ins.Dst))
			}
		}
	}
	order := info.PostOrder()
	changed := true
	tmp := NewBitSet(n)
	for changed {
		changed = false
		for _, b := range order {
			out := lv.Out[b.ID]
			out.Reset()
			for _, s := range b.Succs {
				out.UnionWith(lv.In[s.ID])
			}
			tmp.CopyFrom(out)
			tmp.AndNotWith(def[b.ID])
			tmp.UnionWith(use[b.ID])
			if !tmp.Equal(lv.In[b.ID]) {
				lv.In[b.ID].CopyFrom(tmp)
				changed = true
			}
		}
	}
	return lv
}

// LiveAfter reports whether reg is live immediately after ins.
func (lv *Liveness) LiveAfter(ins *ir.Instr, reg ir.Reg) bool {
	b := ins.Blk
	idx := b.IndexOf(ins)
	for k := idx + 1; k < len(b.Instrs); k++ {
		x := b.Instrs[k]
		found := false
		x.ForEachUse(func(_ int, r ir.Reg) {
			if r == reg {
				found = true
			}
		})
		if found {
			return true
		}
		if x.HasDst() && x.Dst == reg {
			return false
		}
	}
	return lv.Out[b.ID].Has(int(reg))
}
