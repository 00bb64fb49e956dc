package interp

import (
	"errors"
	"strings"
	"testing"

	"signext/internal/ir"
	"signext/internal/minijava"
)

// recursiveSrc recurses n frames deep before returning. No loop bound
// protects it: termination relies entirely on the argument, which is the
// shape a hostile or buggy input uses to grow the interpreter's Go stack.
const recursiveSrc = `
int down(int n) {
	if (n <= 0) return 0;
	return down(n - 1) + 1;
}
void main() {
	print(down(30000));
}`

func TestMaxDepthStructuredError(t *testing.T) {
	cu, err := minijava.Compile(recursiveSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Default bound: the 30000-frame recursion must come back as ErrDepth —
	// a structured error, not a stack blowout.
	res, err := Run(cu.Prog, "main", Options{Mode: Mode32})
	if !errors.Is(err, ErrDepth) {
		t.Fatalf("err = %v, want ErrDepth", err)
	}
	if res == nil {
		t.Fatal("result must carry the partial run")
	}
	if !strings.Contains(err.Error(), "down") {
		t.Errorf("error %q does not name the function", err)
	}

	// An explicit bound is honored exactly: depth 40 lets a 30-deep
	// recursion finish…
	shallow := `
int down(int n) {
	if (n <= 0) return 0;
	return down(n - 1) + 1;
}
void main() {
	print(down(30));
}`
	cu2, err := minijava.Compile(shallow)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(cu2.Prog, "main", Options{Mode: Mode32, MaxDepth: 40})
	if err != nil || out.Output != "30\n" {
		t.Fatalf("depth-40 run = (%q, %v), want (30, nil)", out.Output, err)
	}
	// …and depth 10 trips it.
	if _, err := Run(cu2.Prog, "main", Options{Mode: Mode32, MaxDepth: 10}); !errors.Is(err, ErrDepth) {
		t.Fatalf("depth-10 run err = %v, want ErrDepth", err)
	}
}

// TestMaxDepthDeterministicAcrossModes: the bound trips at the same frame in
// 32-bit and 64-bit mode, so differential runs see identical traps.
func TestMaxDepthDeterministicAcrossModes(t *testing.T) {
	cu, err := minijava.Compile(recursiveSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, err32 := Run(cu.Prog, "main", Options{Mode: Mode32, MaxDepth: 100})
	_, err64 := Run(cu.Prog.Clone(), "main", Options{Mode: Mode32, MaxDepth: 100})
	if err32 == nil || err64 == nil || err32.Error() != err64.Error() {
		t.Fatalf("depth traps differ: %v vs %v", err32, err64)
	}
}

// wideRecursionIR recurses without bound through a function whose register
// file has 65001 slots: the depth bound alone would let it hold 10,000 such
// frames (about 15 GiB).
const wideRecursionIR = `
func f(r0 i32) i32 {
	b0:
	r65000 = const 0
	r1 = call f (r0)
	ret.32 r1
}

func main() {
	b0:
	r0 = const 1
	r1 = call f (r0)
	print.32 r1
	ret
}
`

// TestLiveSlotsBounded: past MaxLiveSlots register slots across all frames
// a call traps with ErrMemory, at the same call and with the same Result
// under both dispatchers.
func TestLiveSlotsBounded(t *testing.T) {
	prog, err := ir.ParseProgram(wideRecursionIR)
	if err != nil {
		t.Fatal(err)
	}
	sw, th, swErr, thErr := runBoth(t, prog, Options{Mode: Mode32, Profile: true, CountCalls: true})
	if !errors.Is(swErr, ErrMemory) {
		t.Fatalf("err = %v, want ErrMemory", swErr)
	}
	assertIdentical(t, "wide recursion", sw, th, swErr, thErr)
	if want := int64(MaxLiveSlots / 65001); sw.Calls["f"] != want {
		t.Errorf("f entered %d times before the trap, want %d", sw.Calls["f"], want)
	}
}
