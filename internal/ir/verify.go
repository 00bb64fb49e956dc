package ir

import "fmt"

// Verify performs structural sanity checks on the function and returns the
// first problem found. It is used by tests and (under a build flag in the
// driver) after every compiler phase.
func (f *Func) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", f.Name)
	}
	seenID := make([]bool, f.nextIID)
	for _, b := range f.Blocks {
		if b.Fn != f {
			return fmt.Errorf("%s/%s: block has wrong Fn", f.Name, b)
		}
		if b.ID < 0 || b.ID >= f.nextBID {
			// Analyses size dense per-block tables by NumBlockIDs.
			return fmt.Errorf("%s/%s: block ID outside [0, %d)", f.Name, b, f.nextBID)
		}
		if len(b.Instrs) == 0 {
			return fmt.Errorf("%s/%s: empty block", f.Name, b)
		}
		for k, ins := range b.Instrs {
			if ins.Blk != b {
				return fmt.Errorf("%s/%s: instr %s has wrong Blk", f.Name, b, ins)
			}
			if ins.ID < 0 || ins.ID >= f.nextIID {
				// Analyses size dense per-instruction tables by NumInstrIDs.
				return fmt.Errorf("%s/%s: instr ID %d outside [0, %d)", f.Name, b, ins.ID, f.nextIID)
			}
			if seenID[ins.ID] {
				return fmt.Errorf("%s/%s: duplicate instr ID %d", f.Name, b, ins.ID)
			}
			seenID[ins.ID] = true
			if ins.IsTerminator() != (k == len(b.Instrs)-1) {
				return fmt.Errorf("%s/%s: terminator misplaced: %s", f.Name, b, ins)
			}
			if ins.HasDst() && (int(ins.Dst) < 0 || int(ins.Dst) >= f.NReg) {
				return fmt.Errorf("%s/%s: dst out of range: %s", f.Name, b, ins)
			}
			bad := false
			ins.ForEachUse(func(_ int, r Reg) {
				if int(r) < 0 || int(r) >= f.NReg {
					bad = true
				}
			})
			if bad {
				return fmt.Errorf("%s/%s: src out of range: %s", f.Name, b, ins)
			}
			if ins.Op == OpExt || ins.Op == OpZext || ins.Op == OpExtDummy {
				if ins.W != W8 && ins.W != W16 && ins.W != W32 {
					return fmt.Errorf("%s/%s: bad extension width: %s", f.Name, b, ins)
				}
			}
		}
		term := b.Instrs[len(b.Instrs)-1]
		want := 0
		switch term.Op {
		case OpBr, OpFBr:
			want = 2
		case OpJmp:
			want = 1
		}
		if len(b.Succs) != want {
			return fmt.Errorf("%s/%s: %d successors for %s", f.Name, b, len(b.Succs), term)
		}
		for _, s := range b.Succs {
			if !hasBlock(s.Preds, b) {
				return fmt.Errorf("%s/%s: successor %s lacks pred edge", f.Name, b, s)
			}
		}
		for _, p := range b.Preds {
			if !hasBlock(p.Succs, b) {
				return fmt.Errorf("%s/%s: pred %s lacks succ edge", f.Name, b, p)
			}
		}
	}
	return nil
}

func hasBlock(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}
