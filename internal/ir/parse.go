package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// maxGlobals and maxRegs bound the globals count and register numbers a
// program text may use: the interpreter allocates every global cell up
// front and a register file per frame, and analyses size tables by register
// count, so absurd values from untrusted text would exhaust memory before
// anything runs. Compiled kernels use a few hundred registers.
const (
	maxGlobals = 1 << 20
	maxRegs    = 1 << 16
)

// ParseProgram parses the textual IR form produced by Func.Format back into
// a program, enabling golden tests, hand-written test inputs and tooling.
// The accepted grammar is exactly what Format emits, plus an optional
// leading "globals N" line; everything from a ";" to the end of its line is
// a comment (Format itself emits "; preds" annotations, and sxfuzz
// reproducers carry "; key: value" metadata headers):
//
//	globals 2
//	func f(r0 i32, r1 ref) i32 {
//	b0:
//		r2 = const 7
//		r2 = ext.32 r2
//		br.32.lt r2 r0 -> b1, b2
//	b1:
//		ret.32 r2
//	b2:
//		r3 = aload.32 r1 r0
//		ret.32 r3
//	}
func ParseProgram(src string) (*Program, error) {
	p := &irParser{lines: strings.Split(src, "\n")}
	prog := NewProgram()
	for {
		p.skipBlank()
		if p.eof() {
			break
		}
		line := stripComment(p.cur())
		switch {
		case strings.HasPrefix(line, "globals "):
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "globals ")))
			if err != nil || n < 0 || n > maxGlobals {
				return nil, p.errf("bad globals count")
			}
			prog.NGlobals = n
			p.next()
		case strings.HasPrefix(line, "func "):
			fn, err := p.parseFunc()
			if err != nil {
				return nil, err
			}
			if prog.Func(fn.Name) != nil {
				return nil, fmt.Errorf("ir: duplicate function %q", fn.Name)
			}
			prog.AddFunc(fn)
		default:
			return nil, p.errf("expected 'func' or 'globals', found %q", line)
		}
	}
	return prog, nil
}

// ParseFunc parses a single function in Format syntax.
func ParseFunc(src string) (*Func, error) {
	p := &irParser{lines: strings.Split(src, "\n")}
	p.skipBlank()
	return p.parseFunc()
}

type irParser struct {
	lines []string
	pos   int
}

func (p *irParser) eof() bool   { return p.pos >= len(p.lines) }
func (p *irParser) cur() string { return p.lines[p.pos] }
func (p *irParser) next()       { p.pos++ }

func (p *irParser) skipBlank() {
	for !p.eof() && stripComment(p.cur()) == "" {
		p.next()
	}
}

// stripComment trims whitespace and drops everything from ";" on. The IR
// grammar has no string literals, so ";" anywhere starts a comment.
func stripComment(line string) string {
	if idx := strings.Index(line, ";"); idx >= 0 {
		line = line[:idx]
	}
	return strings.TrimSpace(line)
}

func (p *irParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("ir: line %d: %s", p.pos+1, fmt.Sprintf(format, args...))
}

var opByName = func() map[string]Op {
	m := map[string]Op{}
	for op := Op(1); op < opMax; op++ {
		m[op.String()] = op
	}
	return m
}()

var condByName = func() map[string]Cond {
	m := map[string]Cond{}
	for c := CondEQ; c <= CondUGE; c++ {
		m[c.String()] = c
	}
	return m
}()

func parseReg(s string) (Reg, error) {
	if s == "_" {
		return NoReg, nil
	}
	if !strings.HasPrefix(s, "r") {
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= maxRegs {
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	return Reg(n), nil
}

func (p *irParser) parseFunc() (*Func, error) {
	head := strings.TrimSpace(p.cur())
	if !strings.HasPrefix(head, "func ") {
		return nil, p.errf("expected func header")
	}
	open := strings.Index(head, "(")
	close := strings.LastIndex(head, ")")
	if open < 0 || close < open || !strings.HasSuffix(head, "{") {
		return nil, p.errf("malformed func header %q", head)
	}
	fn := &Func{Name: strings.TrimSpace(head[5:open])}
	// Parameters.
	for _, part := range strings.Split(head[open+1:close], ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Fields(part)
		if len(fields) != 2 {
			return nil, p.errf("malformed parameter %q", part)
		}
		var prm Param
		switch fields[1] {
		case "ref":
			prm.Ref = true
		case "f64":
			prm.Float = true
			prm.W = W64
		case "i8":
			prm.W = W8
		case "i16":
			prm.W = W16
		case "i32":
			prm.W = W32
		case "i64":
			prm.W = W64
		default:
			return nil, p.errf("unknown parameter type %q", fields[1])
		}
		fn.Params = append(fn.Params, prm)
	}
	fn.NReg = len(fn.Params)
	// Return type between ")" and "{".
	switch ret := strings.TrimSpace(strings.TrimSuffix(head[close+1:], "{")); ret {
	case "":
	case "f64":
		fn.RetF = true
	case "i32":
		fn.RetW = W32
	case "i64":
		fn.RetW = W64
	default:
		return nil, p.errf("unknown return type %q", ret)
	}
	p.next()

	// First pass: collect blocks and raw instruction lines; second pass:
	// resolve branch targets.
	type rawBlock struct {
		blk     *Block
		targets [][]string // per terminator line (at most one)
	}
	blocks := map[string]*Block{}
	var order []*rawBlock
	var curRaw *rawBlock
	getBlock := func(label string) *Block {
		if b, ok := blocks[label]; ok {
			return b
		}
		b := fn.NewBlock()
		blocks[label] = b
		return b
	}
	touch := func(r Reg) {
		if int(r) >= fn.NReg {
			fn.NReg = int(r) + 1
		}
	}
	for {
		if p.eof() {
			return nil, p.errf("unterminated function %s", fn.Name)
		}
		line := stripComment(p.cur())
		p.next()
		switch {
		case line == "":
			continue
		case line == "}":
			// Wire up branch targets.
			for _, rb := range order {
				for _, ts := range rb.targets {
					for _, t := range ts {
						dst, ok := blocks[t]
						if !ok {
							return nil, p.errf("unknown block %q", t)
						}
						AddEdge(rb.blk, dst)
					}
				}
			}
			return fn, nil
		case strings.HasSuffix(line, ":"):
			label := strings.TrimSuffix(line, ":")
			curRaw = &rawBlock{blk: getBlock(label)}
			order = append(order, curRaw)
			continue
		}
		if curRaw == nil {
			return nil, p.errf("instruction before first block label")
		}
		ins, targets, err := p.parseInstr(fn, line)
		if err != nil {
			return nil, err
		}
		if ins.HasDst() {
			touch(ins.Dst)
		}
		ins.ForEachUse(func(_ int, r Reg) { touch(r) })
		ins.Blk = curRaw.blk
		curRaw.blk.Instrs = append(curRaw.blk.Instrs, ins)
		if targets != nil {
			curRaw.targets = append(curRaw.targets, targets)
		}
	}
}

// parseInstr parses one instruction line, returning branch target labels for
// terminators.
func (p *irParser) parseInstr(fn *Func, line string) (*Instr, []string, error) {
	var dst Reg = NoReg
	rest := line
	if eq := strings.Index(line, " = "); eq > 0 && strings.HasPrefix(line, "r") {
		d, err := parseReg(strings.TrimSpace(line[:eq]))
		if err == nil {
			dst = d
			rest = strings.TrimSpace(line[eq+3:])
		}
	}
	// Split off "-> b1, b2" targets.
	var targets []string
	if arrow := strings.Index(rest, "->"); arrow >= 0 {
		for _, t := range strings.Split(rest[arrow+2:], ",") {
			targets = append(targets, strings.TrimSpace(t))
		}
		rest = strings.TrimSpace(rest[:arrow])
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, nil, p.errf("empty instruction")
	}
	// Mnemonic: op[.width][.cond]
	mn := fields[0]
	parts := strings.Split(mn, ".")
	opName := parts[0]
	// Multi-part op names (ext.dummy) need reassembly.
	if opName == "ext" && len(parts) > 1 && parts[1] == "dummy" {
		opName = "ext.dummy"
		parts = append(parts[:1], parts[2:]...)
	}
	op, ok := opByName[opName]
	if !ok {
		return nil, nil, p.errf("unknown opcode %q", opName)
	}
	ins := fn.NewInstr(op)
	ins.Dst = dst
	for _, suffix := range parts[1:] {
		if suffix == "f" {
			ins.Float = true
			continue
		}
		if c, ok := condByName[suffix]; ok {
			ins.Cond = c
			continue
		}
		n, err := strconv.Atoi(suffix)
		if err != nil || (n != 8 && n != 16 && n != 32 && n != 64) {
			return nil, nil, p.errf("bad mnemonic suffix %q in %q", suffix, mn)
		}
		ins.W = Width(n)
	}
	args := fields[1:]
	// Immediate-style operands.
	switch op {
	case OpConst:
		if len(args) != 1 {
			return nil, nil, p.errf("const takes one immediate")
		}
		v, err := strconv.ParseInt(args[0], 0, 64)
		if err != nil {
			return nil, nil, p.errf("bad integer %q", args[0])
		}
		ins.Const = v
		if ins.W == 0 {
			ins.W = W32
		}
		return ins, targets, nil
	case OpFConst:
		if len(args) != 1 {
			return nil, nil, p.errf("fconst takes one immediate")
		}
		f, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return nil, nil, p.errf("bad float %q", args[0])
		}
		ins.F = f
		ins.W = W64
		return ins, targets, nil
	case OpLoadG, OpStoreG:
		if len(args) < 1 || !strings.HasPrefix(args[0], "g") {
			return nil, nil, p.errf("%s needs a gN cell", op)
		}
		n, err := strconv.Atoi(args[0][1:])
		if err != nil {
			return nil, nil, p.errf("bad global %q", args[0])
		}
		ins.Const = int64(n)
		args = args[1:]
	case OpCall, OpFCall:
		if len(args) < 1 {
			return nil, nil, p.errf("%s needs a callee", op)
		}
		ins.Callee = args[0]
		args = args[1:]
	}
	// Call argument list "(r1, r2)".
	if len(args) > 0 && strings.HasPrefix(args[0], "(") {
		joined := strings.Join(args, " ")
		joined = strings.TrimPrefix(joined, "(")
		joined = strings.TrimSuffix(joined, ")")
		for _, a := range strings.Split(joined, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				continue
			}
			r, err := parseReg(a)
			if err != nil {
				return nil, nil, p.errf("%v", err)
			}
			ins.Args = append(ins.Args, r)
		}
		return ins, targets, nil
	}
	// Fixed register operands.
	for _, a := range args {
		r, err := parseReg(a)
		if err != nil {
			return nil, nil, p.errf("%v", err)
		}
		if int(ins.NSrcs) >= len(ins.Srcs) {
			return nil, nil, p.errf("too many operands in %q", line)
		}
		ins.Srcs[ins.NSrcs] = r
		ins.NSrcs++
	}
	return ins, targets, nil
}
