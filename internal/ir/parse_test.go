package ir

import (
	"testing"
)

const sampleIR = `
globals 1
func helper(r0 i32) i32 {
b0:
	r1 = const 3
	r2 = mul.32 r0 r1
	r2 = ext.32 r2
	ret.32 r2
}
func main() {
b0:
	r0 = const 10
	r1 = newarr.32 r0
	r2 = const 0
	jmp -> b1
b1:
	br.32.lt r2 r0 -> b2, b3
b2:
	r3 = call helper (r2)
	astore.32 r1 r2 r3
	r4 = const 1
	r2 = add.32 r2 r4
	r2 = ext.32 r2
	jmp -> b1
b3:
	r5 = const 0
	r6 = const 0
	jmp -> b4
b4:
	br.32.lt r6 r0 -> b5, b6
b5:
	r7 = aload.32 r1 r6
	r7 = ext.32 r7
	r5 = add.32 r5 r7
	r5 = ext.32 r5
	r8 = const 1
	r6 = add.32 r6 r8
	r6 = ext.32 r6
	jmp -> b4
b6:
	storeg.32 g0 r5
	r9 = loadg.32 g0
	r9 = ext.32 r9
	print.32 r9
	r10 = i2d r9
	fprint r10
	ret
}
`

func TestParseProgram(t *testing.T) {
	prog, err := ParseProgram(sampleIR)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NGlobals != 1 || len(prog.Funcs) != 2 {
		t.Fatalf("structure: globals=%d funcs=%d", prog.NGlobals, len(prog.Funcs))
	}
	for _, fn := range prog.Funcs {
		if err := fn.Verify(); err != nil {
			t.Fatalf("%s: %v\n%s", fn.Name, err, fn.Format())
		}
	}
	mainFn := prog.Func("main")
	if len(mainFn.Blocks) != 7 {
		t.Fatalf("main has %d blocks", len(mainFn.Blocks))
	}
	if got := mainFn.CountOp(OpExt); got != 5 {
		t.Fatalf("main has %d extensions, want 5", got)
	}
	h := prog.Func("helper")
	if h.RetW != W32 || h.NParams() != 1 || h.Params[0].W != W32 {
		t.Fatalf("helper signature wrong: %+v", h.Params)
	}
}

// TestParseFormatRoundTrip: Format(Parse(Format(f))) is a fixpoint — the
// second and third textual forms agree exactly.
func TestParseFormatRoundTrip(t *testing.T) {
	prog, err := ParseProgram(sampleIR)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range prog.Funcs {
		once := fn.Format()
		fn2, err := ParseFunc(once)
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", fn.Name, err, once)
		}
		twice := fn2.Format()
		if once != twice {
			t.Fatalf("%s: round trip diverged:\n--- once ---\n%s\n--- twice ---\n%s",
				fn.Name, once, twice)
		}
	}
}

// TestConstWidthRoundTrip pins the width of constants across Format/Parse.
// A bare "const" is W32 by parser default; every other width must print its
// suffix, or a 64-bit constant silently narrows on the way back in — which
// changes how the optimizer classifies it. Text-based persistence (the disk
// compile cache, the daemon's IR intake) rides on this.
func TestConstWidthRoundTrip(t *testing.T) {
	b := NewFunc("f")
	b.Fn.RetW = W64
	wide := b.Const(W64, 2654435761)
	b.Const(W32, 7)
	b.Ret(wide)

	text := b.Fn.Format()
	fn2, err := ParseFunc(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	var got []Width
	fn2.ForEachInstr(func(_ *Block, ins *Instr) {
		if ins.Op == OpConst {
			got = append(got, ins.W)
		}
	})
	if len(got) != 2 || got[0] != W64 || got[1] != W32 {
		t.Fatalf("const widths %v after round trip, want [W64 W32]\n%s", got, text)
	}
	if fn2.Format() != text {
		t.Fatalf("format not a fixpoint:\n%s\n---\n%s", text, fn2.Format())
	}
}

func TestParseFloatMarker(t *testing.T) {
	fn, err := ParseFunc(`func f() f64 {
b0:
	r0 = const 4
	r1 = newarr.f.64 r0
	r2 = fconst 2.5
	astore.f.64 r1 r0 r2
	r3 = aload.f.64 r1 r0
	ret r3
}`)
	// The parse should fail gracefully or succeed; the canonical order is
	// op.width.f — accept both by formatting what Format would emit.
	if err != nil {
		// Canonical spelling.
		fn, err = ParseFunc(`func f() f64 {
b0:
	r0 = const 4
	r1 = newarr.64.f r0
	r2 = fconst 2.5
	r4 = const 0
	astore.64.f r1 r4 r2
	r3 = aload.64.f r1 r4
	ret r3
}`)
		if err != nil {
			t.Fatal(err)
		}
	}
	found := false
	fn.ForEachInstr(func(_ *Block, ins *Instr) {
		if ins.Op == OpArrLoad && ins.Float {
			found = true
		}
	})
	if !found {
		t.Fatalf("float marker lost:\n%s", fn.Format())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"func broken( {",
		"func f() {\nb0:\n\tbogus.32 r1\n}",
		"func f() {\n\tr0 = const 1\n}",                                       // instruction before label
		"func f() {\nb0:\n\tjmp -> nowhere\n}",                                // unknown block
		"func f() {\nb0:\n\tr0 = const 1\n",                                   // unterminated
		"globals x\nfunc f() {\nb0:\n\tret\n}",                                // bad globals
		"globals -1\nfunc f() {\nb0:\n\tret\n}",                               // negative globals
		"globals 99999999\nfunc f() {\nb0:\n\tret\n}",                         // globals beyond the interpreter's bound
		"func f() {\n}\nfunc f() {\n}",                                        // duplicate function
		"func f() {\nb0:\n\tr1999999999 = const 1\n\tret\n}",                  // register beyond the bound
		"func f() {\nb0:\n\tr0 = const 1\n\tr1 = and.6499999 r0 r0\n\tret\n}", // no such width
		"func f(r0 quux) {\nb0:\n\tret\n}",                                    // bad param type
		"func f() {\nb0:\n\tr0 = const\n}",                                    // missing immediate
		"func f() {\nb0:\n\tr0 = add.32 r1 r2 r3 r4\n}",                       // too many operands
	}
	for _, src := range cases {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("accepted malformed input %q", src)
		}
	}
}
