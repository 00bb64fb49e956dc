package difftest

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"signext/internal/ir"
	"signext/internal/progen"
)

// withChecks replaces every row's check with swap(row) and restores the
// table when the test ends.
func withChecks(t *testing.T, swap func(row property) func(*leg, failFunc)) {
	saved := slices.Clone(properties)
	for i := range properties {
		properties[i].check = swap(saved[i])
	}
	t.Cleanup(func() { copy(properties, saved) })
}

func tableProgram(t *testing.T) *Program {
	t.Helper()
	p, err := Generate(3, "ir", progen.Config{Stmts: 3})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func hasProp(fails []Failure, name string) bool {
	return slices.ContainsFunc(fails, func(f Failure) bool { return f.Prop == name })
}

// TestEveryPathSeesEveryProperty swaps each row's check for one that always
// fails and demands that every route to a property sees the failure: Check
// with the property named, the shrink predicate for it, replay of a
// reproducer carrying it (the TestReproducers path), and a campaign's
// corpus replay, the last two also under an oracle-only configuration. A
// property the shrinker or replay cannot reach would silently drop its
// findings.
func TestEveryPathSeesEveryProperty(t *testing.T) {
	p := tableProgram(t)
	for _, row := range properties {
		name := row.name
		t.Run(name, func(t *testing.T) {
			withChecks(t, func(row property) func(*leg, failFunc) {
				if row.name != name {
					return row.check
				}
				return func(_ *leg, fail failFunc) { fail("forced failure") }
			})
			if fails, skipped := Check(p, Config{Props: []string{name}}); skipped || !hasProp(fails, name) {
				t.Errorf("Check with %s named: skipped=%v, failures %v", name, skipped, fails)
			}
			if !propPredicate(name, ir.IA64, Config{})(p.Prog) {
				t.Errorf("shrink predicate for %s does not see the failure", name)
			}
			r := &Repro{Seed: p.Seed, Kind: p.Kind, Prop: name, Machine: ir.IA64, Prog: p.Prog}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, r.Filename()), r.Marshal(), 0o644); err != nil {
				t.Fatal(err)
			}
			// Replay runs the reproducer's own property whether or not the
			// caller's configuration is oracle-only.
			for _, oracleOnly := range []bool{false, true} {
				c := Config{OracleOnly: oracleOnly}
				if fails, skipped := r.Replay(c); skipped || !hasProp(fails, name) {
					t.Errorf("replay of a %s reproducer (OracleOnly=%v): skipped=%v, failures %v",
						name, oracleOnly, skipped, fails)
				}
				res, err := Campaign(CampaignConfig{Seed: 1, Count: 1, Workers: 1, Corpus: dir, Check: c})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.ContainsFunc(res.FailureDetails, func(d string) bool {
					return strings.HasPrefix(d, "corpus "+r.Filename()+": ["+name+"/")
				}) {
					t.Errorf("corpus replay of a %s entry (OracleOnly=%v) does not see the failure: %v",
						name, oracleOnly, res.FailureDetails)
				}
			}
		})
	}
}

// TestPropertySchedule pins which programs each property checks, named and
// unnamed, on heavy-sample and oracle-only programs.
func TestPropertySchedule(t *testing.T) {
	everyProgram := []string{"compile", "fallback", "oracle", "mode32", "lowering", "cross-machine"}
	heavySample := []string{"parallel-identity", "budget", "fixpoint", "dispatch-identity"}
	namedEvery := []string{"dispatch-identity", "peep-identity"}
	namedHeavy := []string{"cache-identity", "profile-identity", "serve-identity"}
	union := func(lists ...[]string) []string {
		var all []string
		for _, l := range lists {
			for _, n := range l {
				if !slices.Contains(all, n) {
					all = append(all, n)
				}
			}
		}
		sort.Strings(all)
		return all
	}

	var table []string
	for _, row := range properties {
		table = append(table, row.name)
	}
	sort.Strings(table)
	if all := union(everyProgram, heavySample, namedEvery, namedHeavy); !slices.Equal(table, all) {
		t.Fatalf("table rows %v, schedule names %v", table, all)
	}
	names := PropNames()
	sort.Strings(names)
	if want := union(namedEvery, namedHeavy); !slices.Equal(names, want) {
		t.Errorf("PropNames() = %v, want %v", names, want)
	}

	ran := map[string]bool{}
	withChecks(t, func(row property) func(*leg, failFunc) {
		return func(*leg, failFunc) { ran[row.name] = true }
	})
	p := tableProgram(t)
	for _, tc := range []struct {
		oracleOnly bool
		props      []string
		want       []string
	}{
		{true, nil, union(everyProgram)},
		{false, nil, union(everyProgram, heavySample)},
		{true, PropNames(), union(everyProgram, namedEvery)},
		{false, PropNames(), union(everyProgram, heavySample, namedEvery, namedHeavy)},
	} {
		clear(ran)
		if _, skipped := Check(p, Config{OracleOnly: tc.oracleOnly, Props: tc.props}); skipped {
			t.Fatal("schedule program skipped")
		}
		var got []string
		for n := range ran {
			got = append(got, n)
		}
		sort.Strings(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("OracleOnly=%v Props=%v ran %v, want %v", tc.oracleOnly, tc.props, got, tc.want)
		}
	}
}

// TestParseProps: -props accepts the nameable rows and rejects anything
// else with a diagnostic listing them.
func TestParseProps(t *testing.T) {
	got, err := ParseProps("cache-identity, serve-identity")
	if err != nil || !slices.Equal(got, []string{"cache-identity", "serve-identity"}) {
		t.Fatalf("ParseProps = %v, %v", got, err)
	}
	for _, bad := range []string{"bogus", "oracle", "cache-identity,"} {
		if _, err := ParseProps(bad); err == nil || !strings.Contains(err.Error(), strings.Join(PropNames(), ", ")) {
			t.Errorf("ParseProps(%q) error %v does not list the valid names", bad, err)
		}
	}
}

// TestNightlyMatrixNamesEveryProperty is a lint over the nightly sxfuzz
// workflow, in the style of peep's generated-test lint: its props column
// must hold one campaign per property naming widens, pass the cell to
// -props, and name nothing else. A new opt-in property fails here until the
// nightly runs it.
func TestNightlyMatrixNamesEveryProperty(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "nightly-sxfuzz.yml"))
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`(?m)^\s*props:\s*\[(.*)\]\s*$`).FindSubmatch(data)
	if line == nil {
		t.Fatal("nightly-sxfuzz.yml has no props matrix column")
	}
	if !strings.Contains(string(data), `-props "${{ matrix.props }}"`) {
		t.Error("the nightly campaign does not pass the props column to -props")
	}
	var column []string
	for _, m := range regexp.MustCompile(`"([^"]*)"`).FindAllSubmatch(line[1], -1) {
		column = append(column, string(m[1]))
	}
	for _, name := range append([]string{""}, PropNames()...) {
		if !slices.Contains(column, name) {
			t.Errorf("nightly props column lacks %q", name)
		}
	}
	for _, cell := range column {
		if cell != "" && !slices.Contains(PropNames(), cell) {
			t.Errorf("nightly props cell %q is not a property naming widens", cell)
		}
	}
}
