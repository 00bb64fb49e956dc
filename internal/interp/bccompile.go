// Bytecode compilation: flattening an ir.Func into the fast (fused,
// segment-accounted) and careful (unfused, per-instruction) code arrays of a
// bcFunc, plus the per-run bcState plumbing on machine.
package interp

import (
	"signext/internal/ir"
)

const minInt64 = -1 << 63

// compileBC flattens fn, or returns nil when the function is irregular — a
// terminator anywhere but block-last position. The walker keeps executing the
// rest of a block after a mid-block jump; replicating that in flat code is
// not worth it, so irregular functions stay on the walker.
//
// Lowering is one pass over the blocks in layout order, so an instruction's
// orig index, a branch's dense counter and a call's table index are running
// counts; only the block-to-pc table needs storage, indexed by Block.ID.
func compileBC(prog *ir.Program, fn *ir.Func) *bcFunc {
	n, nbr, ncall, nblk := 0, 0, 0, 0
	for _, b := range fn.Blocks {
		nblk = max(nblk, b.ID+1)
		n += len(b.Instrs)
		for i, ins := range b.Instrs {
			if ins.IsTerminator() && i != len(b.Instrs)-1 {
				return nil
			}
			switch ins.Op {
			case ir.OpBr, ir.OpFBr:
				nbr++
			case ir.OpCall:
				ncall++
			}
		}
	}
	nseg := len(fn.Blocks) + ncall
	bf := &bcFunc{
		fn:    fn,
		fast:  make([]bcIns, 0, n+nseg+len(fn.Blocks)),
		segs:  make([]bcSeg, 0, nseg),
		origs: make([]*ir.Instr, 0, n),
		calls: make([]bcCall, 0, ncall),
		brIDs: make([]int, 0, nbr),
	}

	// Fast array: per block, segment heads + fused code, then a fell-through
	// token when the block has no terminator. Every block opens with a head,
	// even an empty one, so a branch target is always a tokSeg. Branch targets
	// hold block IDs until the fix-up pass below.
	blockStart := make([]int32, nblk)
	for _, b := range fn.Blocks {
		blockStart[b.ID] = int32(len(bf.fast))
		base := int32(len(bf.origs))
		bf.origs = append(bf.origs, b.Instrs...)
		instrs := b.Instrs
		for segStart := 0; ; {
			segEnd := segStart
			for segEnd < len(instrs) && instrs[segEnd].Op != ir.OpCall {
				segEnd++
			}
			if segEnd < len(instrs) {
				segEnd++ // the call ends its segment, inclusive
			}
			segID := int32(len(bf.segs))
			bf.segs = append(bf.segs, bcSeg{origStart: base + int32(segStart), origEnd: base + int32(segEnd)})
			bf.fast = append(bf.fast, bcIns{h: hSeg, tok: tokSeg, t0: segID, imm: int64(segEnd - segStart)})

			for i := segStart; i < segEnd; {
				in, k := fuse(instrs, i, segEnd, base+int32(i))
				if k == 0 {
					in, k = encodeOne(instrs[i], base+int32(i)), 1
				}
				switch last := instrs[i+k-1]; last.Op {
				case ir.OpBr, ir.OpFBr:
					in.prof = int32(len(bf.brIDs))
					bf.brIDs = append(bf.brIDs, last.ID)
					in.t0, in.t1 = int32(last.Blk.Succs[0].ID), int32(last.Blk.Succs[1].ID)
				case ir.OpJmp:
					in.t0 = int32(last.Blk.Succs[0].ID)
				case ir.OpCall:
					in.t0 = int32(len(bf.calls))
					bf.calls = append(bf.calls, bcCall{fn: prog.Func(last.Callee), args: last.Args, name: last.Callee})
				}
				bf.fast = append(bf.fast, in)
				i += k
			}
			if segStart = segEnd; segStart >= len(instrs) {
				break
			}
		}
		if b.Term() == nil {
			bf.fast = append(bf.fast, bcIns{h: hFellThrough, tok: tokFellThrough, imm: int64(b.ID)})
		}
	}
	for pc := range bf.fast {
		switch in := &bf.fast[pc]; in.tok {
		case tokBr, tokFBr, tokExtBr, tokAddBr, tokSubBr, tokAddExtBr:
			in.t0, in.t1 = blockStart[in.t0], blockStart[in.t1]
		case tokJmp, tokAddJmp:
			in.t0 = blockStart[in.t0]
		}
	}
	return bf
}

// lowerCareful builds the careful array: 1:1 with origs, unfused, no
// accounting tokens (the careful loop accounts inline). Only a run whose step
// limit lands inside a segment needs it. Branch targets, branch counters and
// call indices stay zero: careful mode provably stops before any terminator
// or call executes.
func (bf *bcFunc) lowerCareful() []bcIns {
	code := make([]bcIns, len(bf.origs))
	for k, ins := range bf.origs {
		code[k] = encodeOne(ins, int32(k))
	}
	return code
}

// fuse tries the superinstruction patterns at instrs[i] (longest first,
// within [i, segEnd)), whose orig index is orig. It returns the fused
// encoding and the number of constituent instructions, or n == 0 when
// nothing matches. A fused branch's counter and targets are the caller's to
// fill in.
func fuse(instrs []*ir.Instr, i, segEnd int, orig int32) (bcIns, int) {
	cur := instrs[i]
	var nxt, nxt2 *ir.Instr
	if i+1 < segEnd {
		nxt = instrs[i+1]
	}
	if i+2 < segEnd {
		nxt2 = instrs[i+2]
	}
	extOf := func(ext *ir.Instr, src ir.Reg) bool {
		return ext != nil && ext.Op == ir.OpExt && ext.Srcs[0] == src
	}
	intBr := func(br *ir.Instr) bool {
		return br != nil && br.Op == ir.OpBr
	}

	// add + ext + br (the inc/normalize/loop-back latch progen emits).
	if cur.Op == ir.OpAdd && extOf(nxt, cur.Dst) && intBr(nxt2) {
		return bcIns{
			h: hAddExtBr, tok: tokAddExtBr,
			w: cur.W, w2: nxt.W, w3: nxt2.W, cond: nxt2.Cond,
			dst: cur.Dst, a: cur.Srcs[0], b: cur.Srcs[1], c: nxt.Dst,
			x: nxt2.Srcs[0], y: nxt2.Srcs[1],
			orig: orig,
		}, 3
	}
	// const + add reading the constant.
	if cur.Op == ir.OpConst && nxt != nil && nxt.Op == ir.OpAdd &&
		(nxt.Srcs[0] == cur.Dst || nxt.Srcs[1] == cur.Dst) {
		return bcIns{
			h: hConstAdd, tok: tokConstAdd,
			w: nxt.W, imm: cur.Const,
			c: cur.Dst, dst: nxt.Dst, a: nxt.Srcs[0], b: nxt.Srcs[1],
			orig: orig,
		}, 2
	}
	// const + aload indexed by the constant (the a[K] idiom). Skipped when an
	// ext of the load follows, so the aload+ext fusion can claim it instead —
	// either way two of the three instructions fuse.
	if cur.Op == ir.OpConst && nxt != nil && nxt.Op == ir.OpArrLoad &&
		!nxt.Float && nxt.Srcs[1] == cur.Dst && !extOf(nxt2, nxt.Dst) {
		return bcIns{
			h: hConstALoad, tok: tokConstALoad,
			w: nxt.W, imm: cur.Const,
			c: cur.Dst, dst: nxt.Dst, a: nxt.Srcs[0], b: nxt.Srcs[1],
			orig: orig,
		}, 2
	}
	// arith + ext of the result.
	if extOf(nxt, cur.Dst) {
		switch cur.Op {
		case ir.OpAdd, ir.OpSub, ir.OpMul:
			h, tok := hAddExt, tokAddExt
			switch cur.Op {
			case ir.OpSub:
				h, tok = hSubExt, tokSubExt
			case ir.OpMul:
				h, tok = hMulExt, tokMulExt
			}
			return bcIns{
				h: h, tok: tok,
				w: cur.W, w2: nxt.W,
				dst: cur.Dst, a: cur.Srcs[0], b: cur.Srcs[1], c: nxt.Dst,
				orig: orig,
			}, 2
		case ir.OpLoadG:
			if !cur.Float {
				return bcIns{
					h: hLoadGExt, tok: tokLoadGExt,
					w: cur.W, w2: nxt.W, imm: cur.Const,
					dst: cur.Dst, c: nxt.Dst,
					orig: orig,
				}, 2
			}
		case ir.OpArrLoad:
			if !cur.Float {
				return bcIns{
					h: hArrLoadExt, tok: tokArrLoadExt,
					w: cur.W, w2: nxt.W,
					dst: cur.Dst, a: cur.Srcs[0], b: cur.Srcs[1], c: nxt.Dst,
					orig: orig,
				}, 2
			}
		}
	}
	// ext + br (narrow compare operands freshly normalized).
	if cur.Op == ir.OpExt && intBr(nxt) {
		return bcIns{
			h: hExtBr, tok: tokExtBr,
			w: cur.W, w2: nxt.W, cond: nxt.Cond,
			dst: cur.Dst, a: cur.Srcs[0],
			x: nxt.Srcs[0], y: nxt.Srcs[1],
			orig: orig,
		}, 2
	}
	// add/sub + br.
	if (cur.Op == ir.OpAdd || cur.Op == ir.OpSub) && intBr(nxt) {
		h, tok := hAddBr, tokAddBr
		if cur.Op == ir.OpSub {
			h, tok = hSubBr, tokSubBr
		}
		return bcIns{
			h: h, tok: tok,
			w: cur.W, w2: nxt.W, cond: nxt.Cond,
			dst: cur.Dst, a: cur.Srcs[0], b: cur.Srcs[1],
			x: nxt.Srcs[0], y: nxt.Srcs[1],
			orig: orig,
		}, 2
	}
	// add + jmp (loop latch with the normalization already elided).
	if cur.Op == ir.OpAdd && nxt != nil && nxt.Op == ir.OpJmp {
		return bcIns{
			h: hAddJmp, tok: tokAddJmp,
			w: cur.W, dst: cur.Dst, a: cur.Srcs[0], b: cur.Srcs[1],
			orig: orig,
		}, 2
	}
	return bcIns{}, 0
}

// encodeOne returns the unfused encoding of ins. Branch targets, branch
// counters and call indices are left for the caller to fill in (fast array)
// or unused (careful array).
func encodeOne(ins *ir.Instr, orig int32) bcIns {
	in := bcIns{w: ins.W, cond: ins.Cond, fl: ins.Float, dst: ins.Dst,
		a: ins.Srcs[0], b: ins.Srcs[1], c: ins.Srcs[2], orig: orig}
	switch ins.Op {
	case ir.OpConst:
		in.h, in.tok, in.imm = hConst, tokConst, ins.Const
	case ir.OpFConst:
		in.h, in.tok, in.fimm = hFConst, tokFConst, ins.F
	case ir.OpMov:
		in.h, in.tok = hMov, tokMov
	case ir.OpFMov:
		in.h, in.tok = hFMov, tokFMov
	case ir.OpAdd:
		in.h, in.tok = hAdd, tokAdd
	case ir.OpSub:
		in.h, in.tok = hSub, tokSub
	case ir.OpMul:
		in.h, in.tok = hMul, tokMul
	case ir.OpDiv:
		in.h, in.tok = hDiv, tokDiv
	case ir.OpRem:
		in.h, in.tok = hRem, tokRem
	case ir.OpAnd:
		in.h, in.tok = hAnd, tokAnd
	case ir.OpOr:
		in.h, in.tok = hOr, tokOr
	case ir.OpXor:
		in.h, in.tok = hXor, tokXor
	case ir.OpNot:
		in.h, in.tok = hNot, tokNot
	case ir.OpNeg:
		in.h, in.tok = hNeg, tokNeg
	case ir.OpShl:
		in.h, in.tok = hShl, tokShl
	case ir.OpAShr:
		in.h, in.tok = hAShr, tokAShr
	case ir.OpLShr:
		in.h, in.tok = hLShr, tokLShr
	case ir.OpExt:
		in.h, in.tok, in.extW = hExt, tokExt, ins.W
	case ir.OpZext:
		in.h, in.tok = hZext, tokZext
	case ir.OpExtDummy:
		in.h, in.tok = hExtDummy, tokExtDummy
	case ir.OpI2D, ir.OpL2D:
		in.h, in.tok = hI2D, tokI2D
	case ir.OpD2I:
		in.h, in.tok = hD2I, tokD2I
	case ir.OpD2L:
		in.h, in.tok = hD2L, tokD2L
	case ir.OpFAdd:
		in.h, in.tok = hFAdd, tokFAdd
	case ir.OpFSub:
		in.h, in.tok = hFSub, tokFSub
	case ir.OpFMul:
		in.h, in.tok = hFMul, tokFMul
	case ir.OpFDiv:
		in.h, in.tok = hFDiv, tokFDiv
	case ir.OpFNeg:
		in.h, in.tok = hFNeg, tokFNeg
	case ir.OpFCall:
		in.h, in.tok = hFCall, tokFCall
	case ir.OpCall:
		in.h, in.tok = hCall, tokCall
	case ir.OpRet:
		in.h, in.tok = hRet, tokRet
		if ins.NSrcs != 1 {
			in.a = ir.NoReg
		}
	case ir.OpLoadG:
		in.h, in.tok, in.imm = hLoadG, tokLoadG, ins.Const
	case ir.OpStoreG:
		in.h, in.tok, in.imm = hStoreG, tokStoreG, ins.Const
	case ir.OpNewArr:
		in.h, in.tok = hNewArr, tokNewArr
	case ir.OpArrLoad:
		in.h, in.tok = hArrLoad, tokArrLoad
	case ir.OpArrStore:
		in.h, in.tok = hArrStore, tokArrStore
	case ir.OpArrLen:
		in.h, in.tok = hArrLen, tokArrLen
	case ir.OpBr:
		in.h, in.tok, in.x, in.y = hBr, tokBr, ins.Srcs[0], ins.Srcs[1]
	case ir.OpFBr:
		in.h, in.tok, in.x, in.y = hFBr, tokFBr, ins.Srcs[0], ins.Srcs[1]
	case ir.OpJmp:
		in.h, in.tok = hJmp, tokJmp
	case ir.OpTrap:
		in.h, in.tok = hTrap, tokTrap
	case ir.OpPrint:
		in.h, in.tok = hPrint, tokPrint
	case ir.OpFPrint:
		in.h, in.tok = hFPrint, tokFPrint
	default:
		in.h, in.tok = hBad, tokBad
	}
	return in
}

// ---------------------------------------------------------------------------
// Per-machine state: lazy compile cache, per-run cost/profile tables, pools.

// bcFor returns fn's threaded state, compiling on first use, or nil when the
// run uses the walker (switch dispatch, per-instruction hooks, or an
// irregular function).
func (m *machine) bcFor(fn *ir.Func) *bcState {
	if !m.threaded {
		return nil
	}
	st, ok := m.bc[fn]
	if ok {
		return st
	}
	if bf := compileBC(m.prog, fn); bf != nil {
		st = m.newBCState(bf)
	}
	if m.bc == nil {
		m.bc = map[*ir.Func]*bcState{}
	}
	m.bc[fn] = st
	return st
}

// newBCState evaluates the run's cost model once per instruction (Options.
// Cost must be pure: segment accounting sums it ahead of execution order) and
// sizes the segment hit and dense branch counters. Branches are counted
// even without Options.Profile, which keeps the branch handlers free of a
// test; only flushBC looks at the option.
func (m *machine) newBCState(bf *bcFunc) *bcState {
	st := &bcState{bf: bf, mode: m.mode, hits: make([]int64, len(bf.segs)), prof: make([][2]int64, len(bf.brIDs))}
	if m.opt.Cost != nil {
		st.cost = make([]int64, len(bf.origs))
		for k, ins := range bf.origs {
			st.cost[k] = m.opt.Cost(ins)
		}
		st.segCost = make([]int64, len(bf.segs))
		for si, seg := range bf.segs {
			sum := int64(0)
			for k := seg.origStart; k < seg.origEnd; k++ {
				sum += st.cost[k]
			}
			st.segCost[si] = sum
		}
	}
	return st
}

// foldHits charges st's pending segment hits to the result — hits times the
// segment's cycle cost, to the mode they ran under, and hits times each of
// its sign extensions — then rebinds st to the current mode. It runs at the
// end of the run and whenever a frame of the function executes under a
// different mode than its pending hits did.
func (m *machine) foldHits(st *bcState) {
	bf := st.bf
	for si, h := range st.hits {
		if h == 0 {
			continue
		}
		st.hits[si] = 0
		if st.segCost != nil {
			c := h * st.segCost[si]
			m.res.Cycles += c
			m.res.ModeCycles[st.mode] += c
		}
		seg := bf.segs[si]
		for _, ins := range bf.origs[seg.origStart:seg.origEnd] {
			if ins.Op == ir.OpExt {
				m.res.Ext[ins.W] += h
			}
		}
	}
	st.mode = m.mode
}

// flushBC folds every function's segment hits into the result and
// materializes the dense branch counters into Result.Profile with the
// walker's exact shape: every entered function gets a map (possibly empty),
// and counters exist only for branches that executed. The counters are
// handed over in place; the machine is done with them.
func (m *machine) flushBC() {
	for fn, st := range m.bc {
		if st == nil || !st.entered {
			continue
		}
		m.foldHits(st)
		if m.res.Profile == nil {
			continue
		}
		pm := m.res.Profile[fn.Name]
		if pm == nil {
			pm = make(map[int]*[2]int64, len(st.bf.brIDs))
			m.res.Profile[fn.Name] = pm
		}
		for bi := range st.prof {
			c := &st.prof[bi]
			if c[0] == 0 && c[1] == 0 {
				continue
			}
			if p := pm[st.bf.brIDs[bi]]; p != nil {
				p[0] += c[0]
				p[1] += c[1]
			} else {
				pm[st.bf.brIDs[bi]] = c
			}
		}
	}
}

// acquireRegs returns a zeroed register file, reusing a pooled backing array
// when one is large enough.
func (m *machine) acquireRegs(n int) []slot {
	if k := len(m.regPool); k > 0 {
		s := m.regPool[k-1]
		if cap(s) >= n {
			m.regPool = m.regPool[:k-1]
			s = s[:n]
			clear(s)
			return s
		}
	}
	return make([]slot, n)
}

func (m *machine) releaseRegs(s []slot) {
	m.regPool = append(m.regPool, s)
}

func (m *machine) acquireFrame() *bcFrame {
	if k := len(m.framePool); k > 0 {
		fr := m.framePool[k-1]
		m.framePool = m.framePool[:k-1]
		*fr = bcFrame{}
		return fr
	}
	return new(bcFrame)
}

func (m *machine) releaseFrame(fr *bcFrame) {
	fr.regs = nil
	fr.st = nil
	fr.err = nil
	m.framePool = append(m.framePool, fr)
}
