package tiered

import (
	"testing"

	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/workloads"
)

// steadyInvokeAllocCeiling caps the heap allocations of one steady-state
// cycle: one Invoke of each of the paper's 17 kernels after every promotion
// has happened. It sits about 10% above the 811 allocations measured with
// go1.24, where each Invoke lowers every executed function to bytecode
// without maps, folds the interpreter's segment hit counters once per run
// and hands the dense branch counters to the profile in place. Allocation
// counts are deterministic, unlike wall time, so this is an interpreter-cost
// gate a shared CI runner can enforce; CI pins go 1.22.x, whose map
// allocation counts differ, so re-measure there if it trips. Crossing the
// ceiling means per-run lowering or accounting allocates per instruction or
// per branch again; a large drop below it should lower it.
const steadyInvokeAllocCeiling = 890

// steadyWarmup is how many invocations bring every kernel to steady state
// under the default tiering options: each kernel's last promotion happens
// well before it.
const steadyWarmup = 12

// TestSteadyInvokeAllocs takes each kernel to steady state the way the
// tiered-steady benchmark does (variant all on IA64, general optimizations
// on, one worker), then counts the allocations of one Invoke per kernel.
func TestSteadyInvokeAllocs(t *testing.T) {
	var ms []*Manager
	for _, w := range workloads.All() {
		cu, err := minijava.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		m, err := New(cu.Prog, Config{Options: jit.Options{
			Variant: jit.All, Machine: ir.IA64, GeneralOpts: true, Parallelism: 1,
		}})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for i := 0; i < steadyWarmup; i++ {
			if _, err := m.Invoke(); err != nil {
				t.Fatalf("%s: invocation %d: %v", w.Name, i+1, err)
			}
		}
		ms = append(ms, m)
	}
	tierUps := make([]int, len(ms))
	for i, m := range ms {
		tierUps[i] = m.Telemetry().TierUps
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, m := range ms {
			if _, err := m.Invoke(); err != nil {
				t.Fatal(err)
			}
		}
	})
	for i, m := range ms {
		if got := m.Telemetry().TierUps; got != tierUps[i] {
			t.Fatalf("kernel %d promoted during the measured cycles (%d -> %d tier-ups): not steady", i, tierUps[i], got)
		}
	}
	t.Logf("steady cycle: %.0f allocations (ceiling %d)", allocs, steadyInvokeAllocCeiling)
	if allocs > steadyInvokeAllocCeiling {
		t.Fatalf("steady cycle made %.0f allocations, above the ceiling of %d", allocs, steadyInvokeAllocCeiling)
	}
}
