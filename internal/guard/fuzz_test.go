package guard

import (
	"os"
	"path/filepath"
	"testing"

	"signext/internal/ir"
)

// addIRCorpus seeds f with every IR reproducer and directed peephole corpus
// entry checked in under internal/difftest/testdata.
func addIRCorpus(f *testing.F) {
	for _, pat := range []string{"*.ir", "peep/*.ir"} {
		files, err := filepath.Glob(filepath.Join("..", "difftest", "testdata", pat))
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
}

// FuzzParseIR hardens the IR ingest path the compile daemon runs on
// untrusted text: whatever the input, ir.ParseProgram must return an error
// or a program, and VerifyProgram must then accept or reject that program —
// never panic.
func FuzzParseIR(f *testing.F) {
	addIRCorpus(f)
	f.Add("func main() {\n}")
	f.Add("globals 1\nfunc main() {\nb0:\n\tr0 = loadg.32 g5\n\tret\n}")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ir.ParseProgram(src)
		if err != nil {
			return
		}
		for _, m := range []ir.Machine{ir.IA64, ir.PPC64} {
			VerifyProgram(p, m)
		}
	})
}
