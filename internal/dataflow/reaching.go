package dataflow

import (
	"signext/internal/cfg"
	"signext/internal/ir"
)

// DefSite identifies one definition: an instruction that writes a register,
// or a function parameter (Instr == nil, Param >= 0).
type DefSite struct {
	Instr *ir.Instr
	Param int // parameter index when Instr == nil
	Reg   ir.Reg
}

// IsParam reports whether the definition is an incoming parameter.
func (d DefSite) IsParam() bool { return d.Instr == nil }

// Reaching holds the reaching-definitions solution for a function.
type Reaching struct {
	Fn      *ir.Func
	Defs    []DefSite // def number -> site
	DefNum  []int     // instruction ID -> def number (defining instructions only)
	ByReg   [][]int   // register -> def numbers writing it
	In, Out []BitSet  // block ID -> boundary set
}

// ComputeReaching solves reaching definitions over fn. Parameters act as
// definitions at function entry.
func ComputeReaching(fn *ir.Func, info *cfg.Info) *Reaching {
	// Count the definitions of each register first, so Defs and every
	// ByReg list are carved from exact-size allocations.
	perReg := make([]int, fn.NReg)
	for p := range fn.Params {
		perReg[p]++
	}
	fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
		if ins.HasDst() {
			perReg[ins.Dst]++
		}
	})
	total := 0
	for _, n := range perReg {
		total += n
	}
	r := &Reaching{
		Fn:     fn,
		Defs:   make([]DefSite, 0, total),
		DefNum: make([]int, fn.NumInstrIDs()),
		ByReg:  make([][]int, fn.NReg),
	}
	nums := make([]int, total)
	at := 0
	for reg, n := range perReg {
		r.ByReg[reg] = nums[at : at : at+n]
		at += n
	}
	for p := range fn.Params {
		r.ByReg[p] = append(r.ByReg[p], len(r.Defs))
		r.Defs = append(r.Defs, DefSite{Param: p, Reg: ir.Reg(p)})
	}
	fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
		if !ins.HasDst() {
			return
		}
		n := len(r.Defs)
		r.Defs = append(r.Defs, DefSite{Instr: ins, Param: -1, Reg: ins.Dst})
		r.DefNum[ins.ID] = n
		r.ByReg[ins.Dst] = append(r.ByReg[ins.Dst], n)
	})

	nd := len(r.Defs)
	sets := newBlockSets(fn, 4, nd)
	gen, kill := sets[0], sets[1]
	r.In, r.Out = sets[2], sets[3]
	for _, b := range fn.Blocks {
		g, k := gen[b.ID], kill[b.ID]
		for _, ins := range b.Instrs {
			if !ins.HasDst() {
				continue
			}
			dn := r.DefNum[ins.ID]
			for _, other := range r.ByReg[ins.Dst] {
				g.Clear(other)
				k.Set(other)
			}
			g.Set(dn)
			k.Clear(dn)
		}
	}
	// Entry IN: the parameters.
	for p := range fn.Params {
		r.In[fn.Entry().ID].Set(p)
	}

	order := info.RPO
	changed := true
	tmp := NewBitSet(nd)
	for changed {
		changed = false
		for _, b := range order {
			in := r.In[b.ID]
			if b != fn.Entry() {
				in.Reset()
				for _, p := range b.Preds {
					in.UnionWith(r.Out[p.ID])
				}
			}
			tmp.CopyFrom(in)
			tmp.AndNotWith(kill[b.ID])
			tmp.UnionWith(gen[b.ID])
			if !tmp.Equal(r.Out[b.ID]) {
				r.Out[b.ID].CopyFrom(tmp)
				changed = true
			}
		}
	}
	return r
}

// Walk calls f for every instruction of the function in layout order, with
// the set of definitions reaching the point just before it. The set is
// reused from one call to the next, so f must not keep it. f may rewrite the
// instruction, but not its destination, and must not add or remove
// instructions.
func (r *Reaching) Walk(f func(ins *ir.Instr, reaching BitSet)) {
	cur := NewBitSet(len(r.Defs))
	for _, b := range r.Fn.Blocks {
		cur.CopyFrom(r.In[b.ID])
		for _, ins := range b.Instrs {
			f(ins, cur)
			r.step(cur, ins)
		}
	}
}

// step moves cur past ins: its definition replaces every other definition
// of the same register.
func (r *Reaching) step(cur BitSet, ins *ir.Instr) {
	if !ins.HasDst() {
		return
	}
	for _, other := range r.ByReg[ins.Dst] {
		cur.Clear(other)
	}
	cur.Set(r.DefNum[ins.ID])
}

// DefsAt returns the definition numbers of reg live immediately before ins
// within its block (walking the block from its IN set).
func (r *Reaching) DefsAt(ins *ir.Instr, reg ir.Reg) []int {
	b := ins.Blk
	cur := r.In[b.ID].Clone()
	for _, x := range b.Instrs {
		if x == ins {
			break
		}
		r.step(cur, x)
	}
	var out []int
	for _, dn := range r.ByReg[reg] {
		if cur.Has(dn) {
			out = append(out, dn)
		}
	}
	return out
}
