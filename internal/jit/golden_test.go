package jit

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// TestCompiledIRDigest pins the compiled output of the paper's 17 kernels:
// one SHA-256 line per (variant, machine, profile on/off) over every
// function's printed IR and the phase statistics. Analysis refactors that
// promise byte-identical output are checked against it. Regenerate with:
// go test ./internal/jit -run TestCompiledIRDigest -update
func TestCompiledIRDigest(t *testing.T) {
	type kernel struct {
		name    string
		prog    *ir.Program
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
		ks = append(ks, kernel{w.Name, cu.Prog, ref.Profile})
	}
	var out strings.Builder
	for _, v := range Variants {
		for _, m := range []ir.Machine{ir.IA64, ir.PPC64} {
			for _, withProfile := range []bool{false, true} {
				h := sha256.New()
				for _, k := range ks {
					o := Options{Variant: v, Machine: m, GeneralOpts: true, Parallelism: 1}
					if withProfile {
						o.Profile = k.profile
					}
					res, err := Compile(k.prog, o)
					if err != nil {
						t.Fatalf("%s/%v/%v: %v", k.name, v, m, err)
					}
					st := res.Stats
					fmt.Fprintf(h, "%s inserted=%d dummies=%d eliminated=%d remaining=%d budget=%v static=%d\n",
						k.name, st.Inserted, st.Dummies, st.Eliminated, st.Remaining, st.BudgetExhausted, res.StaticExts)
					for _, fn := range res.Prog.Funcs {
						fmt.Fprintln(h, fn.Format())
					}
				}
				fmt.Fprintf(&out, "%-28s %-5v profile=%-5v %x\n", v, m, withProfile, h.Sum(nil))
			}
		}
	}
	path := filepath.Join("testdata", "compiled_ir.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("compiled IR differs from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
