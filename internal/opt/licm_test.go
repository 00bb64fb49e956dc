package opt

import (
	"fmt"
	"runtime"
	"testing"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/dataflow"
	"signext/internal/extelim"
	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/progen"
	"signext/internal/workloads"
)

// buildLoopChain returns a function with one loop that hoists (an invariant
// extension) followed by later loops that hoist nothing: each only counts a
// register it reads before redefining.
func buildLoopChain(later int) *ir.Func {
	b := ir.NewFunc("chain", ir.Param{W: ir.W32}, ir.Param{W: ir.W32})
	s := b.Add(ir.W32, ir.Reg(0), ir.Reg(1))
	i := b.Fn.NewReg()
	b.ConstTo(ir.W32, i, 0)
	loop, exit := b.NewBlock(), b.NewBlock()
	b.Jmp(loop)
	b.SetBlock(loop)
	w := b.Fn.NewReg()
	b.ExtTo(ir.W32, w, s) // invariant: hoisted
	b.OpTo(ir.OpAdd, ir.W32, i, i, w)
	b.Ext(ir.W32, i)
	b.Br(ir.W32, ir.CondLT, i, ir.Reg(0), loop, exit)
	b.SetBlock(exit)
	b.Print(ir.W32, i)
	for k := 0; k < later; k++ {
		j := b.Fn.NewReg()
		b.ConstTo(ir.W32, j, 0)
		body, next := b.NewBlock(), b.NewBlock()
		b.Jmp(body)
		b.SetBlock(body)
		b.OpTo(ir.OpAdd, ir.W32, j, j, ir.Reg(1))
		b.Ext(ir.W32, j)
		b.Br(ir.W32, ir.CondLT, j, ir.Reg(0), body, next)
		b.SetBlock(next)
		b.Print(ir.W32, j)
	}
	b.Ret(ir.NoReg)
	return b.Fn
}

// bytesAllocated returns the heap bytes f allocates.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLICMRebuildsOnlyAfterHoisting pins that licm refreshes its analyses
// only after a loop that hoisted something, not after every loop that
// follows the first hoist. It measures what the optimizer allocates in
// units of one UD/DU chain build plus one liveness solution on the same
// function: that ratio stays flat as non-hoisting loops are added when
// they cost no rebuild, and grows by one per loop when each costs one.
func TestLICMRebuildsOnlyAfterHoisting(t *testing.T) {
	ratio := func(later int) float64 {
		fn := buildLoopChain(later)
		if st := Run(fn.Clone()); st.Hoisted != 1 {
			t.Fatalf("%d later loops: hoisted %d, want 1", later, st.Hoisted)
		}
		info := cfg.Compute(fn)
		unit := bytesAllocated(func() {
			chains.Build(fn, info)
			dataflow.ComputeLiveness(fn, info)
		})
		clone := bytesAllocated(func() { fn.Clone() })
		run := bytesAllocated(func() { Run(fn.Clone()) }) - clone
		return float64(run) / float64(unit)
	}
	few, many := ratio(2), ratio(12)
	t.Logf("optimizer cost in analysis units: %.2f with 2 later loops, %.2f with 12", few, many)
	if many > 1.25*few {
		t.Fatalf("optimizer cost grows with non-hoisting loops: %.2f analysis units with 2 later loops, %.2f with 12", few, many)
	}
}

// licmWithChains states licm's invariance rule through UD chains: an
// operand is invariant when every definition on its UD chain sits outside
// the loop and the chain is not empty. Chains and liveness are rebuilt
// after every loop that hoisted. It is the oracle for
// TestLICMMatchesChainRule.
func licmWithChains(fn *ir.Func, info *cfg.Info) int {
	if !info.HasLoop() {
		return 0
	}
	ch := chains.Build(fn, info)
	lv := dataflow.ComputeLiveness(fn, info)
	n := 0
	for _, l := range info.Loops {
		pre := l.Preheader()
		if pre == nil {
			continue
		}
		defsInLoop := map[ir.Reg]int{}
		for _, b := range info.RPO {
			if !l.Blocks[b.ID] {
				continue
			}
			for _, ins := range b.Instrs {
				if ins.HasDst() {
					defsInLoop[ins.Dst]++
				}
			}
		}
		hoisted := 0
		for _, b := range info.RPO {
			if !l.Blocks[b.ID] {
				continue
			}
			var hoist []*ir.Instr
			for _, ins := range b.Instrs {
				if !ins.Pure() || !ins.HasDst() || len(ins.Args) > 0 || defsInLoop[ins.Dst] != 1 {
					continue
				}
				if lv.In[l.Header.ID].Has(int(ins.Dst)) {
					continue
				}
				invariant := ins.NumUses() > 0 || ins.Op == ir.OpConst || ins.Op == ir.OpFConst
				for op := 0; op < ins.NumUses(); op++ {
					defs := ch.UD(ins, op)
					if len(defs) == 0 {
						invariant = false
					}
					for _, d := range defs {
						if !d.IsParam() && l.Contains(d.Instr.Blk) {
							invariant = false
						}
					}
				}
				if invariant {
					hoist = append(hoist, ins)
				}
			}
			for _, ins := range hoist {
				b.Remove(ins)
				pre.InsertBefore(pre.Instrs[len(pre.Instrs)-1], ins)
				hoisted++
			}
		}
		if hoisted > 0 {
			n += hoisted
			ch = chains.Build(fn, info)
			lv = dataflow.ComputeLiveness(fn, info)
		}
	}
	return n
}

// TestLICMMatchesChainRule runs the optimizer's rounds over the paper's
// kernels and random programs, once with licm and once with the UD-chain
// oracle in its place, and requires the same hoists at every round.
func TestLICMMatchesChainRule(t *testing.T) {
	var progs []*ir.Program
	for _, w := range workloads.All() {
		cu, err := minijava.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		InlineProgram(cu.Prog)
		progs = append(progs, cu.Prog)
	}
	for seed := int64(1); seed <= 40; seed++ {
		cu, err := minijava.Compile(progen.MiniJava(seed, progen.Config{Stmts: 14, Depth: 3}))
		if err != nil {
			t.Fatalf("progen seed %d: %v", seed, err)
		}
		progs = append(progs, cu.Prog)
	}
	hoists := 0
	for pi, p := range progs {
		for _, fn := range p.Funcs {
			extelim.Convert64(fn, ir.IA64)
			a, b := fn.Clone(), fn.Clone()
			infoA, infoB := cfg.Compute(a), cfg.Compute(b)
			for round := 0; round < 4; round++ {
				constFold(a, infoA)
				constFold(b, infoB)
				for _, f := range []*ir.Func{a, b} {
					localCopyProp(f)
					localCSE(f)
				}
				na, _ := licm(a, infoA)
				nb := licmWithChains(b, infoB)
				where := fmt.Sprintf("program %d, %s, round %d", pi, fn.Name, round)
				if na != nb {
					t.Fatalf("%s: licm hoisted %d, chain rule %d", where, na, nb)
				}
				if fa, fb := a.Format(), b.Format(); fa != fb {
					t.Fatalf("%s: licm and chain rule diverge\n--- licm ---\n%s\n--- chain rule ---\n%s", where, fa, fb)
				}
				hoists += na
				DCE(a)
				DCE(b)
			}
		}
	}
	if hoists == 0 {
		t.Fatal("no loop hoisted anything; the comparison proves nothing")
	}
	t.Logf("%d hoists compared", hoists)
}
