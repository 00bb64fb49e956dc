package dataflow

import (
	"testing"
	"testing/quick"

	"signext/internal/cfg"
	"signext/internal/ir"
)

func TestBitSetBasics(t *testing.T) {
	s := NewBitSet(130)
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if !s.Has(0) || !s.Has(64) || !s.Has(129) || s.Has(1) {
		t.Fatal("set/has broken")
	}
	if s.Count() != 3 {
		t.Fatalf("count = %d", s.Count())
	}
	s.Clear(64)
	if s.Has(64) || s.Count() != 2 {
		t.Fatal("clear broken")
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != 2 || got[0] != 0 || got[1] != 129 {
		t.Fatalf("ForEach = %v", got)
	}
}

// Properties of the set algebra on random membership vectors.
func TestBitSetAlgebra(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		const n = 256
		a, b := NewBitSet(n), NewBitSet(n)
		for _, x := range xs {
			a.Set(int(x))
		}
		for _, y := range ys {
			b.Set(int(y))
		}
		u := a.Clone()
		u.UnionWith(b)
		i := a.Clone()
		i.IntersectWith(b)
		d := a.Clone()
		d.AndNotWith(b)
		for k := 0; k < n; k++ {
			if u.Has(k) != (a.Has(k) || b.Has(k)) {
				return false
			}
			if i.Has(k) != (a.Has(k) && b.Has(k)) {
				return false
			}
			if d.Has(k) != (a.Has(k) && !b.Has(k)) {
				return false
			}
		}
		// Union is idempotent: adding b twice changes nothing.
		u2 := u.Clone()
		if u2.UnionWith(b) {
			return false
		}
		return u2.Equal(u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// buildDiamond constructs:
//
//	b0: x=1; br -> b1, b2
//	b1: x=2; jmp b3
//	b2: (nothing) jmp b3
//	b3: print x; ret
func buildDiamond() (*ir.Func, []*ir.Instr) {
	b := ir.NewFunc("d", ir.Param{W: ir.W32})
	x := b.Fn.NewReg()
	d0 := b.ConstTo(ir.W32, x, 1)
	t1, t2, t3 := b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Br(ir.W32, ir.CondLT, ir.Reg(0), x, t1, t2)
	b.SetBlock(t1)
	d1 := b.ConstTo(ir.W32, x, 2)
	b.Jmp(t3)
	b.SetBlock(t2)
	b.Jmp(t3)
	b.SetBlock(t3)
	use := b.Print(ir.W32, x)
	b.Ret(ir.NoReg)
	return b.Fn, []*ir.Instr{d0, d1, use}
}

func TestReachingDefsDiamond(t *testing.T) {
	fn, ins := buildDiamond()
	info := cfg.Compute(fn)
	r := ComputeReaching(fn, info)
	defsAtUse := r.DefsAt(ins[2], ins[2].Srcs[0])
	if len(defsAtUse) != 2 {
		t.Fatalf("want both definitions to reach the join use, got %d", len(defsAtUse))
	}
	// Inside b1, only d1 reaches the jmp point... check at the branch in b0:
	// only d0.
	term := fn.Entry().Term()
	defsAtBr := r.DefsAt(term, ins[0].Dst)
	if len(defsAtBr) != 1 || r.Defs[defsAtBr[0]].Instr != ins[0] {
		t.Fatalf("only d0 reaches the entry branch, got %v", defsAtBr)
	}
}

func TestReachingParamsAtEntry(t *testing.T) {
	b := ir.NewFunc("p", ir.Param{W: ir.W32}, ir.Param{W: ir.W32})
	use := b.Print(ir.W32, ir.Reg(1))
	b.Ret(ir.NoReg)
	info := cfg.Compute(b.Fn)
	r := ComputeReaching(b.Fn, info)
	defs := r.DefsAt(use, ir.Reg(1))
	if len(defs) != 1 || !r.Defs[defs[0]].IsParam() || r.Defs[defs[0]].Param != 1 {
		t.Fatalf("parameter definition not found: %v", defs)
	}
}

func TestLivenessLoop(t *testing.T) {
	// i alive around the loop; t dead after its final use.
	b := ir.NewFunc("l", ir.Param{W: ir.W32})
	i := b.Fn.NewReg()
	tt := b.Fn.NewReg()
	b.ConstTo(ir.W32, i, 0)
	loop, exit := b.NewBlock(), b.NewBlock()
	b.Jmp(loop)
	b.SetBlock(loop)
	add := b.OpTo(ir.OpAdd, ir.W32, i, i, ir.Reg(0))
	b.ConstTo(ir.W32, tt, 7)
	b.Br(ir.W32, ir.CondLT, i, ir.Reg(0), loop, exit)
	b.SetBlock(exit)
	b.Print(ir.W32, i)
	b.Ret(ir.NoReg)

	info := cfg.Compute(b.Fn)
	lv := ComputeLiveness(b.Fn, info)
	if !lv.In[loop.ID].Has(int(i)) {
		t.Error("i must be live into the loop")
	}
	if lv.In[loop.ID].Has(int(tt)) {
		t.Error("t must not be live into the loop (defined before use)")
	}
	if !lv.LiveAfter(add, i) {
		t.Error("i is live after the add")
	}
	if lv.Out[exit.ID].Count() != 0 {
		t.Error("nothing is live out of the exit block")
	}
}
