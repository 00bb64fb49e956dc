package cfg

import (
	"testing"

	"signext/internal/ir"
)

// buildNested constructs a doubly nested loop:
//
//	entry -> outerHead -> innerHead -> innerBody -> innerHead
//	                      innerExit -> outerLatch -> outerHead
//	outerExit -> ret
func buildNested() (*ir.Func, map[string]*ir.Block) {
	b := ir.NewFunc("nest", ir.Param{W: ir.W32})
	n := ir.Reg(0)
	i := b.Fn.NewReg()
	j := b.Fn.NewReg()
	b.ConstTo(ir.W32, i, 0)
	outerHead := b.NewBlock()
	innerHead := b.NewBlock()
	innerBody := b.NewBlock()
	outerLatch := b.NewBlock()
	exit := b.NewBlock()
	b.Jmp(outerHead)
	b.SetBlock(outerHead)
	b.ConstTo(ir.W32, j, 0)
	b.Br(ir.W32, ir.CondLT, i, n, innerHead, exit)
	b.SetBlock(innerHead)
	b.Br(ir.W32, ir.CondLT, j, n, innerBody, outerLatch)
	b.SetBlock(innerBody)
	one := b.Const(ir.W32, 1)
	b.OpTo(ir.OpAdd, ir.W32, j, j, one)
	b.Jmp(innerHead)
	b.SetBlock(outerLatch)
	one2 := b.Const(ir.W32, 1)
	b.OpTo(ir.OpAdd, ir.W32, i, i, one2)
	b.Jmp(outerHead)
	b.SetBlock(exit)
	b.Ret(ir.NoReg)
	return b.Fn, map[string]*ir.Block{
		"entry": b.Fn.Entry(), "outerHead": outerHead, "innerHead": innerHead,
		"innerBody": innerBody, "outerLatch": outerLatch, "exit": exit,
	}
}

func TestRPOStartsAtEntry(t *testing.T) {
	fn, _ := buildNested()
	info := Compute(fn)
	if info.RPO[0] != fn.Entry() {
		t.Fatal("RPO must start at entry")
	}
	if len(info.RPO) != len(fn.Blocks) {
		t.Fatalf("RPO covers %d of %d blocks", len(info.RPO), len(fn.Blocks))
	}
	// Every block except loop headers appears after all its predecessors.
	for _, b := range info.RPO {
		for _, p := range b.Preds {
			if info.RPONum[p.ID] > info.RPONum[b.ID] && !info.Dominates(b, p) {
				t.Errorf("%v before its non-backedge predecessor %v", b, p)
			}
		}
	}
}

func TestDominators(t *testing.T) {
	fn, m := buildNested()
	info := Compute(fn)
	cases := []struct {
		a, b string
		want bool
	}{
		{"entry", "exit", true},
		{"outerHead", "innerBody", true},
		{"innerHead", "innerBody", true},
		{"innerBody", "outerLatch", false},
		{"innerHead", "outerLatch", true},
		{"outerLatch", "outerHead", false},
		{"exit", "exit", true},
	}
	for _, c := range cases {
		if got := info.Dominates(m[c.a], m[c.b]); got != c.want {
			t.Errorf("Dominates(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if info.IDom[m["innerBody"].ID] != m["innerHead"] {
		t.Errorf("idom(innerBody) = %v", info.IDom[m["innerBody"].ID])
	}
}

func TestLoopNesting(t *testing.T) {
	fn, m := buildNested()
	info := Compute(fn)
	if len(info.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(info.Loops))
	}
	if !info.HasLoop() {
		t.Fatal("HasLoop")
	}
	if d := info.Depth(m["innerBody"]); d != 2 {
		t.Errorf("depth(innerBody) = %d, want 2", d)
	}
	if d := info.Depth(m["outerLatch"]); d != 1 {
		t.Errorf("depth(outerLatch) = %d, want 1", d)
	}
	if d := info.Depth(m["exit"]); d != 0 {
		t.Errorf("depth(exit) = %d, want 0", d)
	}
	if d := info.Depth(m["innerHead"]); d != 2 {
		t.Errorf("depth(innerHead) = %d, want 2", d)
	}
	// The inner loop's parent is the outer loop.
	var inner *Loop
	for _, l := range info.Loops {
		if l.Header == m["innerHead"] {
			inner = l
		}
	}
	if inner == nil || inner.Parent == nil || inner.Parent.Header != m["outerHead"] {
		t.Fatal("inner loop's parent not detected")
	}
}

func TestPreheader(t *testing.T) {
	fn, m := buildNested()
	info := Compute(fn)
	for _, l := range info.Loops {
		switch l.Header {
		case m["outerHead"]:
			if got := l.Preheader(); got != m["entry"] {
				t.Errorf("outer preheader = %v", got)
			}
		case m["innerHead"]:
			if got := l.Preheader(); got != m["outerHead"] {
				// outerHead branches (two successors) so it cannot serve as
				// a preheader; nil is also acceptable only if outerHead has
				// 2 succs — which it does.
				if got != nil {
					t.Errorf("inner preheader = %v", got)
				}
			}
		}
	}
}

func TestStraightLine(t *testing.T) {
	b := ir.NewFunc("s")
	b.Print(ir.W32, b.Const(ir.W32, 1))
	b.Ret(ir.NoReg)
	info := Compute(b.Fn)
	if info.HasLoop() {
		t.Fatal("straight-line code has no loops")
	}
	if len(info.PostOrder()) != 1 {
		t.Fatal("postorder size")
	}
}

func TestUnreachableBlockIgnored(t *testing.T) {
	b := ir.NewFunc("u")
	b.Ret(ir.NoReg)
	dead := b.NewBlock()
	spin := b.NewBlock()
	b.SetBlock(dead)
	b.Jmp(spin)
	b.SetBlock(spin)
	b.Jmp(spin)
	info := Compute(b.Fn)
	if len(info.RPO) != 1 {
		t.Fatalf("RPO should hold only reachable blocks, got %d", len(info.RPO))
	}
	// Unreached blocks, even one that loops to itself, have RPO number -1
	// and belong to no loop.
	for _, x := range []*ir.Block{dead, spin} {
		if info.Reached[x.ID] || info.RPONum[x.ID] != -1 || info.LoopOf[x.ID] != nil || info.IDom[x.ID] != nil {
			t.Errorf("%v: reached %v, RPO number %d, loop %v, idom %v",
				x, info.Reached[x.ID], info.RPONum[x.ID], info.LoopOf[x.ID], info.IDom[x.ID])
		}
		if info.Depth(x) != 0 || info.Dominates(b.Fn.Entry(), x) {
			t.Errorf("%v: depth %d, dominated by the entry %v", x, info.Depth(x), info.Dominates(b.Fn.Entry(), x))
		}
	}
	if info.HasLoop() {
		t.Error("an unreached self-loop is not a loop")
	}
}

// buildGapLoop builds entry -> head -> {body -> head, exit} with a dead
// block created between head and body and then removed from the function,
// leaving a gap in the block IDs.
func buildGapLoop() (fn *ir.Func, gone *ir.Block) {
	b := ir.NewFunc("gap", ir.Param{W: ir.W32})
	i := b.Fn.NewReg()
	b.ConstTo(ir.W32, i, 0)
	head := b.NewBlock()
	gone = b.NewBlock()
	body := b.NewBlock()
	exit := b.NewBlock()
	b.Jmp(head)
	b.SetBlock(gone)
	b.Ret(ir.NoReg)
	b.SetBlock(head)
	b.Br(ir.W32, ir.CondLT, i, ir.Reg(0), body, exit)
	b.SetBlock(body)
	b.OpTo(ir.OpAdd, ir.W32, i, i, b.Const(ir.W32, 1))
	b.Jmp(head)
	b.SetBlock(exit)
	b.Ret(ir.NoReg)
	b.Fn.Blocks = append(b.Fn.Blocks[:2:2], b.Fn.Blocks[3:]...)
	return b.Fn, gone
}

// TestBlockIDGapsAndClone: the tables are indexed by block ID, so a function
// whose IDs have a gap (a block removed) and its Clone, which keeps the IDs,
// get the same facts, each about its own blocks.
func TestBlockIDGapsAndClone(t *testing.T) {
	fn, gone := buildGapLoop()
	if err := fn.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []*ir.Func{fn, fn.Clone()} {
		info := Compute(f)
		if len(info.RPONum) != f.NumBlockIDs() || f.NumBlockIDs() != 5 {
			t.Fatalf("tables sized %d, NumBlockIDs %d, want 5", len(info.RPONum), f.NumBlockIDs())
		}
		if info.Reached[gone.ID] || info.RPONum[gone.ID] != -1 || info.IDom[gone.ID] != nil {
			t.Errorf("removed block: reached %v, RPO number %d, idom %v",
				info.Reached[gone.ID], info.RPONum[gone.ID], info.IDom[gone.ID])
		}
		if len(info.RPO) != len(f.Blocks) {
			t.Fatalf("RPO covers %d of %d blocks", len(info.RPO), len(f.Blocks))
		}
		for k, b := range info.RPO {
			if b.Fn != f || info.RPONum[b.ID] != k {
				t.Errorf("RPO[%d] = %v of another function or numbered %d", k, b, info.RPONum[b.ID])
			}
		}
		entry, head, body, exit := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]
		if info.IDom[body.ID] != head || info.IDom[exit.ID] != head || info.IDom[head.ID] != entry {
			t.Errorf("idoms: body %v, exit %v, head %v", info.IDom[body.ID], info.IDom[exit.ID], info.IDom[head.ID])
		}
		if len(info.Loops) != 1 {
			t.Fatalf("found %d loops, want 1", len(info.Loops))
		}
		l := info.Loops[0]
		if l.Header != head || l.Size != 2 || !l.Contains(body) || l.Contains(exit) || info.LoopOf[body.ID] != l {
			t.Errorf("loop: header %v, size %d, contains body %v, contains exit %v",
				l.Header, l.Size, l.Contains(body), l.Contains(exit))
		}
		if l.Preheader() != entry {
			t.Errorf("preheader = %v, want %v", l.Preheader(), entry)
		}
	}
}

// TestBlockCreatedAfterCompute: a block added after Compute is outside
// every table; the query methods answer for it without panicking.
func TestBlockCreatedAfterCompute(t *testing.T) {
	fn, m := buildNested()
	info := Compute(fn)
	late := fn.NewBlock()
	for _, l := range info.Loops {
		if l.Contains(late) {
			t.Errorf("loop at %v contains a block created after Compute", l.Header)
		}
	}
	if d := info.Depth(late); d != 0 {
		t.Errorf("depth(late) = %d, want 0", d)
	}
	if info.Dominates(m["entry"], late) {
		t.Error("the entry dominates a block created after Compute")
	}
	if !info.Dominates(late, late) {
		t.Error("a block dominates itself")
	}
}
