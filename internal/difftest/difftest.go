// Package difftest is the differential and metamorphic testing engine for
// the sign extension elimination pipeline. Check runs the property table
// (properties) on each generated program against the real jit pipeline: the
// differential oracle (the fully eliminated build reproduces the
// Convert64-only build bit-for-bit), the 32-bit reference, cross-machine
// agreement, zero fallbacks, lowering cost invariants, and the metamorphic
// identities — parallel, dispatch, peep, cache, profile and serve — plus
// budget monotonicity and fixpoint convergence. Each row names a property,
// its schedule (every program, the heavy sample, or only when named in
// Config.Props) and its check; the check methods document what each
// property demands.
//
// Failures are minimized by the shrinker (shrink.go) and persisted as
// self-contained reproducers (repro.go) which regress_test.go replays as
// ordinary go tests. Campaign (campaign.go) drives timed multi-worker runs;
// cmd/sxfuzz is its CLI.
package difftest

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"signext/internal/codecache"
	"signext/internal/extelim"
	"signext/internal/guard"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/progen"
	"signext/internal/target"
	"signext/internal/tiered"
)

// Program is one differential-test subject: a 32-bit-form IR program, plus
// the seed and generator kind that reproduce it.
type Program struct {
	Seed   int64
	Kind   string      // "mj" (via the MiniJava frontend) or "ir" (direct)
	Source string      // MiniJava source when Kind == "mj"
	Prog   *ir.Program // 32-bit form (frontend output)
}

// Generate builds the subject for one (seed, kind) pair. kind "mj" runs the
// progen MiniJava generator through the real frontend; kind "ir" uses the
// direct IR generator. A frontend rejection of a generated program is a
// generator bug and comes back as an error.
func Generate(seed int64, kind string, gen progen.Config) (*Program, error) {
	switch kind {
	case "mj":
		src := progen.MiniJava(seed, gen)
		cu, err := minijava.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("difftest: seed %d: frontend rejected generated source: %w", seed, err)
		}
		return &Program{Seed: seed, Kind: kind, Source: src, Prog: cu.Prog}, nil
	case "ir":
		return &Program{Seed: seed, Kind: kind, Prog: progen.IR(seed, gen)}, nil
	}
	return nil, fmt.Errorf("difftest: unknown program kind %q", kind)
}

// Config selects which properties Check runs and their budgets.
type Config struct {
	Machines    []ir.Machine // default {IA64, PPC64}
	MaxSteps    int64        // per interpreter run (default 50M)
	Budgets     []int        // ascending ElimBudget ladder; default {300, 3000}
	Parallelism int          // worker count of the parallel-identity leg (default 4)
	FixpointK   int          // Eliminate iterations allowed to converge (default 4)

	// Props names properties to run on their named schedule instead of
	// their default one (see the property table). Names outside the table
	// are ignored, so a reproducer's property can always be named.
	Props []string

	// PeepRules restricts the peep-identity property's pass to the named
	// rules (nil = the whole table) — the focused mode for replaying a
	// directed corpus entry against the one rule it targets.
	PeepRules []string

	// OracleOnly marks a program outside the heavy sample: properties whose
	// schedule is heavy skip it — the fast mode for high-throughput
	// campaigns.
	OracleOnly bool
}

func (c Config) withDefaults() Config {
	if len(c.Machines) == 0 {
		c.Machines = []ir.Machine{ir.IA64, ir.PPC64}
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 50_000_000
	}
	if len(c.Budgets) == 0 {
		c.Budgets = []int{300, 3000}
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 4
	}
	if c.FixpointK <= 0 {
		c.FixpointK = 4
	}
	return c
}

// schedule says which programs a property checks.
type schedule uint8

const (
	never schedule = iota
	heavy          // heavy-sample programs only: Config.OracleOnly unset
	every
)

// property is one row of the property table.
type property struct {
	name           string // the Failure.Prop of its findings
	unnamed, named schedule
	// allMachines marks a property that compares machines: a finding of it
	// re-checks on every machine, not only the one it was reported on.
	allMachines bool
	check       func(l *leg, fail failFunc)
}

// properties is the property table, in the order Check runs it. Every
// caller reaches a property through its name here: Check, sxfuzz -props,
// the shrink predicate and reproducer replay. The check methods document
// what each property demands.
var properties = []property{
	// name, unnamed, named, allMachines, check
	{"compile", every, every, false, (*leg).compiled},
	{"fallback", every, every, false, (*leg).noFallback},
	{"oracle", every, every, false, (*leg).oracle},
	{"mode32", every, every, false, (*leg).mode32},
	{"lowering", every, every, false, one((*leg).loweringDetail)},
	{"dispatch-identity", heavy, every, false, one((*leg).dispatchDetail)},
	{"peep-identity", never, every, false, one((*leg).peepDetail)},
	{"parallel-identity", heavy, heavy, false, (*leg).parallelIdentity},
	{"cache-identity", never, heavy, false, (*leg).cacheIdentity},
	{"serve-identity", never, heavy, false, one((*leg).serveDetail)},
	{"profile-identity", never, heavy, false, (*leg).profileIdentity},
	{"budget", heavy, heavy, false, (*leg).budgetMonotone},
	{"fixpoint", heavy, heavy, false, (*leg).fixpoint},
	{"cross-machine", every, every, true, (*leg).crossMachine},
}

// runs reports whether the property checks a program under c.
func (p *property) runs(c Config) bool {
	s := p.unnamed
	if slices.Contains(c.Props, p.name) {
		s = p.named
	}
	return s == every || s == heavy && !c.OracleOnly
}

// lookup returns the table row called name, or nil.
func lookup(name string) *property {
	for i := range properties {
		if properties[i].name == name {
			return &properties[i]
		}
	}
	return nil
}

// PropNames lists, in table order, the properties whose schedule naming
// widens: the values of sxfuzz -props that change a campaign.
func PropNames() []string {
	var names []string
	for _, p := range properties {
		if p.named != p.unnamed {
			names = append(names, p.name)
		}
	}
	return names
}

// ParseProps splits a comma-separated list of property names, rejecting any
// name PropNames does not list.
func ParseProps(list string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
	valid, names := PropNames(), strings.Split(list, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		if !slices.Contains(valid, names[i]) {
			return nil, fmt.Errorf("unknown property %q (valid: %s)", names[i], strings.Join(valid, ", "))
		}
	}
	return names, nil
}

// Failure is one property violation on one program.
type Failure struct {
	Prop    string // name of the property table row that failed
	Machine ir.Machine
	Detail  string
}

func (f Failure) String() string {
	return fmt.Sprintf("[%s/%v] %s", f.Prop, f.Machine, f.Detail)
}

// failFunc records one failure of the property being checked.
type failFunc func(format string, args ...interface{})

// one adapts a check that reports at most one failure, as a detail string
// that is empty when the property holds.
func one(detail func(*leg) string) func(*leg, failFunc) {
	return func(l *leg, fail failFunc) {
		if d := detail(l); d != "" {
			fail("%s", d)
		}
	}
}

// leg is one machine's share of a Check: the guarded compile, the oracle's
// report on it, and the 32-bit-form reference run every property compares
// against.
type leg struct {
	p        *Program
	cfg      Config
	mach     ir.Machine
	res      *jit.Result
	err      error // compile error; no row past the compile row runs then
	rep      *guard.Report
	oerr     error // the differential oracle's verdict
	ref32    *interp.Result
	ref32Err error
	legs     []*leg // every machine's leg of this Check
}

// Check runs every scheduled property on one program. skipped reports that
// the program proved nothing (its reference run hit the step limit) and
// should not count as covered. An empty failure list means every property
// held.
func Check(p *Program, cfg Config) (fails []Failure, skipped bool) {
	cfg = cfg.withDefaults()
	// The 32-bit-form reference semantics: ground truth for everything.
	ref32, ref32Err := interp.Run(p.Prog, "main", interp.Options{
		Mode: interp.Mode32, MaxSteps: cfg.MaxSteps,
	})
	if errors.Is(ref32Err, interp.ErrStepLimit) {
		return nil, true
	}

	legs := make([]*leg, len(cfg.Machines))
	for i, mach := range cfg.Machines {
		l := &leg{p: p, cfg: cfg, mach: mach, ref32: ref32, ref32Err: ref32Err, legs: legs}
		legs[i] = l
		if l.res, l.err = jit.Compile(p.Prog, guarded(mach)); l.err != nil {
			continue
		}
		// Differential oracle: Convert64-only reference vs fully eliminated.
		l.rep, l.oerr = guard.Oracle{Machine: mach, MaxSteps: cfg.MaxSteps}.Check(p.Prog, l.res.Prog)
		if errors.Is(l.rep.RefErr, interp.ErrStepLimit) && errors.Is(l.rep.OptErr, interp.ErrStepLimit) {
			return nil, true
		}
	}
	for _, l := range legs {
		for i := range properties {
			prop := &properties[i]
			if !prop.runs(cfg) {
				continue
			}
			prop.check(l, func(format string, args ...interface{}) {
				fails = append(fails, Failure{Prop: prop.name, Machine: l.mach, Detail: fmt.Sprintf(format, args...)})
			})
			if l.err != nil {
				break // no build to check past the compile row
			}
		}
	}
	return fails, false
}

// guarded is the options of the fully eliminating guarded compile the
// properties start from.
func guarded(mach ir.Machine) jit.Options {
	return jit.Options{Variant: jit.All, Machine: mach, GeneralOpts: true, Checked: true, Parallelism: 1}
}

// compiled: the guarded pipeline compiles every valid program.
func (l *leg) compiled(fail failFunc) {
	if l.err != nil {
		fail("guarded compile failed: %v", l.err)
	}
}

// noFallback: the guarded pipeline never falls back on a valid program.
func (l *leg) noFallback(fail failFunc) {
	for _, fb := range l.res.Fallbacks {
		fail("pipeline fell back on valid input: %v", fb)
	}
}

// oracle: the fully eliminated build reproduces the unoptimized
// Convert64-only build bit-for-bit (output and trap identity) and never
// executes more dynamic extensions.
func (l *leg) oracle(fail failFunc) {
	if l.oerr != nil {
		fail("%v", l.oerr)
	}
}

// mode32: the Convert64-only 64-bit build reproduces the frontend's
// 32-bit-form semantics exactly — Convert64's own correctness contract.
func (l *leg) mode32(fail failFunc) {
	if (l.ref32Err != nil) != (l.rep.RefErr != nil) {
		fail("trap mismatch: 32-bit form %v, Convert64 reference %v", l.ref32Err, l.rep.RefErr)
	} else if l.ref32.Output != l.rep.RefOutput {
		fail("output mismatch:\n32-bit form %q\nConvert64 reference %q", l.ref32.Output, l.rep.RefOutput)
	}
}

// crossMachine: the IA64 and PPC64 reference builds agree on the output.
func (l *leg) crossMachine(fail failFunc) {
	for _, o := range l.legs {
		if l.mach == ir.IA64 && o.mach == ir.PPC64 && o.rep != nil && l.rep.RefErr == nil && o.rep.RefErr == nil &&
			l.rep.RefOutput != o.rep.RefOutput {
			fail("IA64 and PPC64 reference outputs differ:\nia64 %q\nppc64 %q", l.rep.RefOutput, o.rep.RefOutput)
		}
	}
}

// parallelIdentity: Parallelism=1 and Parallelism=N produce bit-identical
// results.
func (l *leg) parallelIdentity(fail failFunc) {
	popts := guarded(l.mach)
	popts.Parallelism = l.cfg.Parallelism
	pres, err := jit.Compile(l.p.Prog, popts)
	if err != nil {
		fail("parallel compile failed: %v", err)
	} else if fingerprint(l.res) != fingerprint(pres) {
		fail("Parallelism=1 and Parallelism=%d results differ", l.cfg.Parallelism)
	}
}

// cacheIdentity: compiling through a freshly populated compile cache must
// reproduce the uncached compile, and a warm cache hit the cold compile that
// populated it, bit-for-bit at every worker count.
func (l *leg) cacheIdentity(fail failFunc) {
	copts := guarded(l.mach)
	copts.Cache = codecache.New(64 << 20)
	cold, cerr := jit.Compile(l.p.Prog, copts)
	if cerr != nil {
		fail("cold cached compile failed: %v", cerr)
		return
	}
	if fingerprint(cold) != fingerprint(l.res) {
		fail("cold compile through the cache differs from the uncached compile")
		return
	}
	for _, par := range []int{1, l.cfg.Parallelism} {
		wopts := copts
		wopts.Parallelism = par
		warm, werr := jit.Compile(l.p.Prog, wopts)
		if werr != nil {
			fail("warm compile (par=%d) failed: %v", par, werr)
			continue
		}
		if warm.CacheStats == nil || warm.CacheStats.Misses != 0 || warm.CacheStats.Hits == 0 {
			fail("warm compile (par=%d) was not fully warm: %+v", par, warm.CacheStats)
		}
		if fingerprint(warm) != fingerprint(cold) {
			fail("warm cache hit (par=%d) differs from the cold compile", par)
		}
	}
}

// profileIdentity: under the tiered runtime, which promotes every function
// after its first call (threshold 1) so later invocations run compiled
// bodies mid-profile, every invocation reproduces the 32-bit reference
// exactly, and by the frozen-profile invariant the steady-state Finalize
// artifact equals a one-shot compile fed the gathered profile, at every
// worker count.
func (l *leg) profileIdentity(fail failFunc) {
pars:
	for _, par := range []int{1, l.cfg.Parallelism} {
		topts := guarded(l.mach)
		topts.Parallelism = par
		mgr, terr := tiered.New(l.p.Prog, tiered.Config{
			Options: topts, HotThreshold: 1, MaxSteps: l.cfg.MaxSteps,
		})
		if terr != nil {
			fail("tiered manager (par=%d): %v", par, terr)
			continue
		}
		for i := 1; i <= 3; i++ {
			tres, ierr := mgr.Invoke()
			switch {
			case errors.Is(ierr, interp.ErrStepLimit):
				continue pars // a step-limited invocation proves nothing
			case (ierr != nil) != (l.ref32Err != nil):
				fail("invocation %d (par=%d) trap mismatch: tiered %v, 32-bit reference %v", i, par, ierr, l.ref32Err)
				continue pars
			case tres.Output != l.ref32.Output:
				fail("invocation %d (par=%d) output mismatch:\ntiered %q\n32-bit reference %q", i, par, tres.Output, l.ref32.Output)
				continue pars
			}
		}
		final, ferr := mgr.Finalize()
		if ferr != nil {
			fail("finalize (par=%d): %v", par, ferr)
			continue
		}
		sopts := topts
		sopts.Profile = mgr.Profile().ToInterp()
		oneshot, serr := jit.Compile(l.p.Prog, sopts)
		if serr != nil {
			fail("one-shot profile compile (par=%d): %v", par, serr)
			continue
		}
		if fingerprint(final) != fingerprint(oneshot) {
			fail("steady-state artifact (par=%d) differs from the one-shot compile with the gathered profile", par)
		}
	}
}

// budgetMonotone: Stats.Eliminated is monotone non-decreasing in ElimBudget
// (exhaustion falls a function back to Convert64-only).
func (l *leg) budgetMonotone(fail failFunc) {
	prev, prevBudget := -1, 0
	for _, budget := range append(append([]int{}, l.cfg.Budgets...), 0) {
		bopts := guarded(l.mach)
		bopts.ElimBudget = budget
		bres, err := jit.Compile(l.p.Prog, bopts)
		if err != nil {
			fail("compile with budget %d failed: %v", budget, err)
			break
		}
		if prev >= 0 && bres.Stats.Eliminated < prev {
			fail("eliminated count not monotone: budget %d eliminated %d, budget %d eliminated %d",
				prevBudget, prev, budget, bres.Stats.Eliminated)
		}
		prev, prevBudget = bres.Stats.Eliminated, budget
	}
}

// fixpoint re-runs the elimination phase on its own output: the static
// extension count must never grow, the IR must reach a textual fixpoint
// within FixpointK iterations, and the converged program must still satisfy
// the oracle. (Strict single-pass idempotence is empirically false — a
// second pass occasionally finds one more eliminable extension — so the
// property is convergence, not no-op; see DESIGN.md §8.)
func (l *leg) fixpoint(fail failFunc) {
	clone := l.res.Prog.Clone()
	ecfg := extelim.Config{Machine: l.mach, Insert: true, Order: true, Array: true}
	count := func() int {
		n := 0
		for _, fn := range clone.Funcs {
			n += fn.CountOp(ir.OpExt)
		}
		return n
	}
	prevExts, prevText := count(), formatProgram(clone)
	for it := 1; ; it++ {
		if it > l.cfg.FixpointK {
			fail("Eliminate did not reach an IR fixpoint within %d iterations", l.cfg.FixpointK)
			return
		}
		for _, fn := range clone.Funcs {
			extelim.Eliminate(fn, ecfg)
		}
		exts, text := count(), formatProgram(clone)
		if exts > prevExts {
			fail("iteration %d grew the static extension count %d -> %d", it, prevExts, exts)
			return
		}
		if text == prevText {
			break
		}
		prevExts, prevText = exts, text
	}
	oracle := guard.Oracle{Machine: l.mach, MaxSteps: l.cfg.MaxSteps}
	if _, err := oracle.Check(l.p.Prog, clone); err != nil {
		fail("converged program violates the oracle: %v", err)
	}
}

// dispatchDetail checks dispatch identity: the program runs under both
// interpreter dispatchers with bit-identical results — output, trap string,
// step count, total and per-mode cycles, dynamic extension count, branch
// profile, and call counts. It checks the two configurations the system
// actually runs: the profiling tier (Mode32, profile and call counting, on
// the source program) and the optimized tier (Mode64, dummy checking, on
// the compiled program).
func (l *leg) dispatchDetail() string {
	runs := []struct {
		name string
		prog *ir.Program
		opts interp.Options
	}{
		{"profiling-32", l.p.Prog, interp.Options{
			Mode: interp.Mode32, Machine: l.mach, MaxSteps: l.cfg.MaxSteps,
			Profile: true, CountCalls: true, Cost: target.CostModel(l.mach),
		}},
		{"optimized-64", l.res.Prog, interp.Options{
			Mode: interp.Mode64, Machine: l.mach, MaxSteps: l.cfg.MaxSteps,
			CheckDummies: true, Cost: target.CostModel(l.mach),
		}},
	}
	for _, run := range runs {
		so := run.opts
		so.Dispatch = interp.DispatchSwitch
		sw, swErr := interp.Run(run.prog, "main", so)
		to := run.opts
		to.Dispatch = interp.DispatchThreaded
		th, thErr := interp.Run(run.prog, "main", to)
		if d := dispatchCompare(sw, swErr, th, thErr); d != "" {
			return fmt.Sprintf("%s leg: %s", run.name, d)
		}
	}
	return ""
}

// dispatchCompare reports the first divergence between a switch-dispatch run
// and a threaded-dispatch run, or "" if they are bit-identical.
func dispatchCompare(sw *interp.Result, swErr error, th *interp.Result, thErr error) string {
	if fmt.Sprint(swErr) != fmt.Sprint(thErr) {
		return fmt.Sprintf("trap mismatch: switch %v, threaded %v", swErr, thErr)
	}
	for _, f := range []struct {
		what   string
		sw, th interface{}
	}{
		{"output", sw.Output, th.Output},
		{"step count", sw.Steps, th.Steps},
		{"cycle count", sw.Cycles, th.Cycles},
		{"mode cycle split", sw.ModeCycles, th.ModeCycles},
		{"dynamic extension count", sw.Ext, th.Ext},
		{"branch profile", sw.Profile, th.Profile},
		{"call count", sw.Calls, th.Calls},
	} {
		if !reflect.DeepEqual(f.sw, f.th) {
			return fmt.Sprintf("%s mismatch:\nswitch %#v\nthreaded %#v", f.what, f.sw, f.th)
		}
	}
	return ""
}

// peepDetail checks peep identity: a build with the rule-table peephole
// pass enabled reproduces the reference build's output and trap behaviour
// exactly, under both interpreter dispatchers, and never falls back on valid
// input. Only observable behaviour is compared — the shift-ext rule may
// legitimately materialize extension instructions, so dynamic extension
// counts are out of scope (unlike the oracle's).
func (l *leg) peepDetail() string {
	popts := guarded(l.mach)
	popts.Peep, popts.PeepRules = true, l.cfg.PeepRules
	res, err := jit.Compile(l.p.Prog, popts)
	if err != nil {
		return fmt.Sprintf("peep compile failed: %v", err)
	}
	for _, fb := range res.Fallbacks {
		return fmt.Sprintf("peep pipeline fell back on valid input: %v", fb)
	}
	for _, d := range []interp.Dispatch{interp.DispatchSwitch, interp.DispatchThreaded} {
		out, rerr := interp.Run(res.Prog, "main", interp.Options{
			Mode: interp.Mode64, Machine: l.mach, MaxSteps: l.cfg.MaxSteps, Dispatch: d,
		})
		if (rerr != nil) != (l.rep.RefErr != nil) {
			return fmt.Sprintf("dispatch %d trap mismatch: peeped %v, reference %v", d, rerr, l.rep.RefErr)
		}
		if rerr == nil && out.Output != l.rep.RefOutput {
			return fmt.Sprintf("dispatch %d output mismatch:\npeeped    %q\nreference %q", d, out.Output, l.rep.RefOutput)
		}
	}
	return ""
}

// loweringDetail cross-checks the machine-level extension cost against the
// IR-level count. IA64 materializes exactly one sxt1/sxt2/sxt4 per OpExt;
// PPC64 one extsb/extsh/extsw per OpExt plus one extsb per byte load (no
// sign-extending lba exists, so lbz pairs with extsb).
func (l *leg) loweringDetail() string {
	for _, fn := range l.res.Prog.Funcs {
		asm := target.Lower(fn, l.mach)
		exts := fn.CountOp(ir.OpExt)
		var got, want int
		switch l.mach {
		case ir.IA64:
			got = asm.Count("sxt1") + asm.Count("sxt2") + asm.Count("sxt4")
			want = exts
		case ir.PPC64:
			byteLoads := 0
			fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
				if (ins.Op == ir.OpArrLoad || ins.Op == ir.OpLoadG) && ins.W == ir.W8 && !ins.Float {
					byteLoads++
				}
			})
			got = asm.Count("extsb") + asm.Count("extsh") + asm.Count("extsw")
			want = exts + byteLoads
		}
		if got != want {
			return fmt.Sprintf("%s: machine ext count %d, IR predicts %d", fn.Name, got, want)
		}
	}
	return ""
}

// fingerprint captures everything about a compile result that must not
// depend on worker scheduling: the IR, statistics, telemetry shape (minus
// wall times) and fallback records.
func fingerprint(res *jit.Result) string {
	var b strings.Builder
	b.WriteString(formatProgram(res.Prog))
	fmt.Fprintf(&b, "stats=%+v static=%d rewrites=%d\n", res.Stats, res.StaticExts, res.PeepRewrites)
	for _, r := range res.Telemetry {
		if r.Phase == jit.PhaseCache {
			// Warm compiles record a per-function lookup-cost entry; it is
			// bookkeeping, not output, and must not break cache identity.
			continue
		}
		fmt.Fprintf(&b, "tel %s %s %d %d %d %d %v\n", r.Func, r.Phase, r.Eliminated, r.Inserted, r.Dummies, r.Rewrites, r.Fallback)
	}
	for _, fb := range res.Fallbacks {
		fmt.Fprintf(&b, "fb %s %s\n", fb.Phase, fb.Func)
	}
	return b.String()
}

// formatProgram renders a program in its canonical textual form.
func formatProgram(p *ir.Program) string {
	var b strings.Builder
	if p.NGlobals > 0 {
		fmt.Fprintf(&b, "globals %d\n", p.NGlobals)
	}
	for _, fn := range p.Funcs {
		b.WriteString(fn.Format())
		b.WriteByte('\n')
	}
	return b.String()
}
