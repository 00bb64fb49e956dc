package jit

import (
	"testing"

	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/workloads"
)

// suiteAllocCeiling caps the heap allocations of one compile of the paper's
// 17 kernels. It sits about 10% above the 97,877 allocations measured with
// go1.24, with UD/DU chains, dataflow sets, CFG facts, value ranges and the
// eliminator's memos in ID-indexed storage, licm refreshing analyses only
// after loops that hoist, and no CFG rebuild after insertion. Allocation counts
// are deterministic, unlike wall time, so this is a compile-cost gate a
// shared CI runner can enforce. Crossing the ceiling means analyses are
// being rebuilt or stored per entry again; a large drop below it should
// lower it.
const suiteAllocCeiling = 108000

// TestSuiteCompileAllocs compiles every kernel from MiniJava source the way
// the compile-suite benchmark does: variant all on IA64, general
// optimizations on, one worker, fed the branch profile of a Mode32 run.
func TestSuiteCompileAllocs(t *testing.T) {
	type kernel struct {
		src     string
		profile interp.Profile
	}
	var ks []kernel
	for _, w := range workloads.All() {
		cu, err := minijava.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		ref, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32, Profile: true})
		if err != nil {
			t.Fatalf("%s: reference run: %v", w.Name, err)
		}
		ks = append(ks, kernel{w.Source, ref.Profile})
	}
	allocs := testing.AllocsPerRun(2, func() {
		for _, k := range ks {
			cu, err := minijava.Compile(k.src)
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Variant: All, Machine: ir.IA64, GeneralOpts: true, Parallelism: 1, Profile: k.profile}
			if _, err := Compile(cu.Prog, o); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("suite compile: %.0f allocations (ceiling %d)", allocs, suiteAllocCeiling)
	if allocs > suiteAllocCeiling {
		t.Fatalf("suite compile made %.0f allocations, above the ceiling of %d", allocs, suiteAllocCeiling)
	}
}
