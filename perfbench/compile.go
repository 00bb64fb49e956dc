package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/extelim"
	"signext/internal/guard"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/opt"
	"signext/internal/target"
	"signext/internal/vrange"
	"signext/internal/workloads"
)

// kernel is one of the paper's 17 programs with its set-up products: the
// frontend output, the branch profile of one interpreter run, and that run's
// output, which is the reference every compiled build must print.
type kernel struct {
	name    string
	src     string
	prog    *ir.Program // 32-bit frontend form
	profile interp.Profile
	want    string
}

// loadKernels parses every kernel and runs it once in the Mode32 interpreter
// with profiling on, exactly the run sxelim makes by default before it
// compiles. The reference interpreter is not the compiler under test, so its
// output is an independent oracle.
func loadKernels() ([]*kernel, error) {
	var ks []*kernel
	for _, w := range workloads.All() {
		cu, err := minijava.Compile(w.Source)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", w.Name, err)
		}
		ref, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32, Profile: true})
		if err != nil {
			return nil, fmt.Errorf("kernel %s: reference run: %w", w.Name, err)
		}
		ks = append(ks, &kernel{name: w.Name, src: w.Source, prog: cu.Prog, profile: ref.Profile, want: ref.Output})
	}
	return ks, nil
}

// suiteOptions is the compile-suite configuration: the paper's full
// algorithm on IA64 with general optimizations, one worker, no cache, no
// guard verification, fed the set-up profile.
func suiteOptions(p interp.Profile) jit.Options {
	return jit.Options{
		Variant:     jit.All,
		Machine:     ir.IA64,
		GeneralOpts: true,
		Parallelism: 1,
		Profile:     p,
	}
}

// compileKernel is the measured operation: MiniJava source to optimized
// code. With a tracer it records the compile, its two calls and jit's own
// phase telemetry as spans of operation op.
func compileKernel(k *kernel, t *tracer, op int) (*minijava.CompileUnit, *jit.Result, error) {
	root := t.begin("compile", op, -1)
	defer t.end(root)
	var cu *minijava.CompileUnit
	var res *jit.Result
	var err error
	t.wrap("minijava", op, root, func() { cu, err = minijava.Compile(k.src) })
	if err != nil {
		return nil, nil, err
	}
	jid := t.wrap("jit", op, root, func() { res, err = jit.Compile(cu.Prog, suiteOptions(k.profile)) })
	if err != nil {
		return cu, nil, err
	}
	at := t.start(jid)
	for _, r := range res.Telemetry {
		name, ok := telemetryName[r.Phase]
		if !ok {
			name = "jit.tel.other"
		}
		at = t.synthetic(name, op, jid, at, r.Wall)
	}
	return cu, res, nil
}

// programDigest identifies a compiled program byte for byte: its IR text and
// the counts the pipeline reports about it.
func programDigest(res *jit.Result) [32]byte {
	h := sha256.New()
	for _, fn := range res.Prog.Funcs {
		h.Write([]byte(fn.Format()))
	}
	fmt.Fprintf(h, "stats=%+v static=%d fallbacks=%d", res.Stats, res.StaticExts, len(res.Fallbacks))
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// codeQuality is what one compiled program costs when it runs: the paper's
// Tables 1-2 and Figures 13-14 quantities, all deterministic.
type codeQuality struct {
	staticExts int
	dynExts    int64
	cycles     int64
	instrs     int // lowered machine instructions
}

func (q *codeQuality) add(o codeQuality) {
	q.staticExts += o.staticExts
	q.dynExts += o.dynExts
	q.cycles += o.cycles
	q.instrs += o.instrs
}

// runCompiled executes a compiled kernel on the 64-bit cost model and checks
// its output against the reference.
func runCompiled(k *kernel, res *jit.Result) (codeQuality, error) {
	out, err := jit.Execute(res, "main")
	if err != nil {
		return codeQuality{}, fmt.Errorf("kernel %s: compiled run: %w", k.name, err)
	}
	if out.Output != k.want {
		return codeQuality{}, fmt.Errorf("kernel %s: compiled output differs from the Mode32 reference", k.name)
	}
	return codeQuality{staticExts: res.StaticExts, dynExts: out.ExtTotal(), cycles: out.Cycles, instrs: loweredInstrs(res)}, nil
}

// loweredInstrs counts the machine instructions of a compiled program.
func loweredInstrs(res *jit.Result) int {
	n := 0
	for _, fn := range res.Prog.Funcs {
		for _, b := range target.Lower(fn, res.Options.Machine).Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// compileSample is one measured compile.
type compileSample struct {
	cpu   time.Duration // CPU time of the compiling thread
	alloc uint64
}

// suiteRun is what the passes of one window produced.
type suiteRun struct {
	samples []compileSample
	cal     calibrator // one unit before each compile
	passes  int
	kept    [2][]*jit.Result // the first two passes' programs, by kernel
	failed  int
}

// compileHook sees each successful compile of a traced window, outside its
// timing.
type compileHook func(op int, k *kernel, cu *minijava.CompileUnit, res *jit.Result)

// suitePasses compiles every kernel once per pass, in a seeded order, until
// the window closes (at least two passes). It checks determinism as it
// goes: every compile must match the first pass byte for byte. Each compile
// is timed in the CPU time of the thread it runs on, which a host that
// steals the virtual CPU does not inflate, after a calibration unit on the
// same thread. t and after may be nil.
func suitePasses(ks []*kernel, seed int64, window time.Duration, t *tracer, after compileHook) *suiteRun {
	defer lockThread()()
	rng := rand.New(rand.NewSource(seed))
	first := make([][32]byte, len(ks))
	sr := &suiteRun{}
	sr.kept[0] = make([]*jit.Result, len(ks))
	sr.kept[1] = make([]*jit.Result, len(ks))
	deadline := time.Now().Add(window)
	for ; sr.passes < 2 || time.Now().Before(deadline); sr.passes++ {
		for _, i := range rng.Perm(len(ks)) {
			k := ks[i]
			op := len(sr.samples)
			sr.cal.unit()
			c0 := readCounters()
			t0 := threadCPU()
			cu, res, err := compileKernel(k, t, op)
			cpu := threadCPU() - t0
			c1 := readCounters()
			sr.samples = append(sr.samples, compileSample{cpu, c1.since(c0).allocBytes})
			if err != nil {
				sr.failed++
				fmt.Fprintf(os.Stderr, "perfbench: kernel %s: compile: %v\n", k.name, err)
				continue
			}
			d := programDigest(res)
			switch {
			case sr.passes == 0:
				first[i] = d
			case d != first[i]:
				sr.failed++
				fmt.Fprintf(os.Stderr, "perfbench: NONDETERMINISM: kernel %s compiled to different IR in pass %d\n", k.name, sr.passes+1)
			}
			if sr.passes < 2 {
				sr.kept[sr.passes][i] = res
			}
			if after != nil {
				after(op, k, cu, res)
			}
		}
	}
	return sr
}

// cpuMS returns the samples' thread CPU times in ms.
func (sr *suiteRun) cpuMS() []float64 {
	xs := make([]float64, len(sr.samples))
	for i, s := range sr.samples {
		xs[i] = ms(s.cpu)
	}
	return xs
}

// checkPasses runs the first two passes' programs and checks their outputs
// and that both passes give identical code-quality counts.
func checkPasses(ks []*kernel, kept [2][]*jit.Result) (codeQuality, int) {
	var q [2]codeQuality
	failed := 0
	for pass := range kept {
		for i, res := range kept[pass] {
			if res == nil {
				continue
			}
			kq, err := runCompiled(ks[i], res)
			if err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				continue
			}
			q[pass].add(kq)
		}
	}
	if q[0] != q[1] {
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: NONDETERMINISM: code quality differs between passes: %+v vs %+v\n", q[0], q[1])
	}
	return q[0], failed
}

func runCompileSuite(c runConfig) (*outcome, error) {
	if c.trace {
		return traceCompileSuite(c)
	}
	ks, setupS, err := setups(loadKernels, func([]*kernel) {})
	if err != nil {
		return nil, err
	}
	sr := suitePasses(ks, c.seed, c.seconds, nil, nil)
	q, runFailed := checkPasses(ks, sr.kept)

	oc := &outcome{attempted: len(sr.samples), failed: sr.failed + runFailed, metrics: map[string]float64{}}
	cpus := sr.cpuMS()
	var alloc float64
	for _, s := range sr.samples {
		alloc += float64(s.alloc)
	}
	m := oc.metrics
	if err := quantiles(m, "op_ms", cpus, 50, 90); err != nil {
		return nil, err
	}
	m["setup_s"] = setupS
	m["ok_ratio"] = 1 - ratio(float64(oc.failed), float64(oc.attempted))
	m["cold_ms.p50"] = m["op_ms.p50"] // no cache: every compile is a cold compile
	// Kernels per CPU-second of one pass, median over passes: the suite
	// compile time, robust to a slow second or two.
	var passRates []float64
	for i := 0; i+len(ks) <= len(cpus); i += len(ks) {
		passRates = append(passRates, float64(len(ks))/(sum(cpus[i:i+len(ks)])/1000))
	}
	m["ops_per_s"] = median(passRates)
	m["alloc_kb_per_op"] = alloc / float64(len(sr.samples)) / 1024
	m["static_exts"] = float64(q.staticExts)
	m["dyn_exts"] = float64(q.dynExts)
	m["run_mcycles"] = float64(q.cycles) / 1e6
	oc.speed = sr.cal.speed()
	return oc, nil
}

// replayStats is what a traced replay counted.
type replayStats struct {
	opt                  opt.Stats
	optAlloc, chainAlloc uint64
	ext                  extelim.Stats
	remaining            int
	verifyErrors         int
}

func (a *replayStats) add(b replayStats) {
	a.opt.Folded += b.opt.Folded
	a.opt.Copies += b.opt.Copies
	a.opt.CSE += b.opt.CSE
	a.opt.Dead += b.opt.Dead
	a.opt.Hoisted += b.opt.Hoisted
	a.optAlloc += b.optAlloc
	a.chainAlloc += b.chainAlloc
	a.ext.Inserted += b.ext.Inserted
	a.ext.Eliminated += b.ext.Eliminated
	a.remaining += b.remaining
	a.verifyErrors += b.verifyErrors
}

// replayKernel is the traced copy of one kernel's pipeline, made through
// the packages' public functions in the order jit.Compile calls them, so
// each phase gets its own span. It returns the replayed program.
func replayKernel(t *tracer, op int, k *kernel, src *ir.Program) (*ir.Program, replayStats) {
	var rs replayStats
	root := t.begin("replay", op, -1)
	defer t.end(root)
	prog := src.Clone()
	t.wrap("opt.inline", op, root, func() { opt.InlineProgram(prog) })
	verify := func(fn *ir.Func) {
		t.wrap("guard.verify", op, root, func() {
			if err := guard.VerifyFunc(fn, ir.IA64); err != nil {
				rs.verifyErrors++
				fmt.Fprintf(os.Stderr, "perfbench: kernel %s: %s: verify: %v\n", k.name, fn.Name, err)
			}
		})
	}
	ec := extelim.Config{Machine: ir.IA64, Insert: true, Order: true, Array: true, Profile: k.profile}
	for _, fn := range prog.Funcs {
		t.wrap("extelim.convert", op, root, func() { extelim.Convert64(fn, ir.IA64) })
		verify(fn)
		c0 := readCounters()
		t.wrap("opt", op, root, func() {
			st := opt.Run(fn)
			rs.opt.Folded += st.Folded
			rs.opt.Copies += st.Copies
			rs.opt.CSE += st.CSE
			rs.opt.Dead += st.Dead
			rs.opt.Hoisted += st.Hoisted
		})
		rs.optAlloc += readCounters().since(c0).allocBytes
		verify(fn)

		// Probes: the shared analyses the eliminator builds, timed on a
		// copy of the post-opt function so the pipeline itself is untouched.
		probe := fn.Clone()
		var info *cfg.Info
		var ch *chains.Chains
		c0 = readCounters()
		t.wrap("chains.build", op, root, func() {
			info = cfg.Compute(probe)
			ch = chains.Build(probe, info)
		})
		rs.chainAlloc += readCounters().since(c0).allocBytes
		t.wrap("vrange", op, root, func() { vrange.Compute(probe, ch, info, ir.IA64, math.MaxInt32) })

		id := t.begin("extelim", op, root)
		st := extelim.Eliminate(fn, ec)
		t.end(id)
		t.synthetic("extelim.chain", op, id, t.start(id), st.ChainTime)
		rs.ext.Inserted += st.Inserted
		rs.ext.Eliminated += st.Eliminated
		verify(fn)
		rs.remaining += fn.CountOp(ir.OpExt)
	}
	return prog, rs
}

// telemetryName maps a jit telemetry phase to its per-layer metric.
var telemetryName = map[string]string{
	jit.PhaseInlining: "jit.tel.inline",
	jit.PhaseConvert:  "jit.tel.convert",
	jit.PhaseOpts:     "jit.tel.opt",
	jit.PhaseSignExt:  "jit.tel.extelim",
	jit.PhaseChains:   "jit.tel.chain",
}

func countInstrs(p *ir.Program) int {
	n := 0
	for _, fn := range p.Funcs {
		fn.ForEachInstr(func(*ir.Block, *ir.Instr) { n++ })
	}
	return n
}

// sameCode reports whether two programs hold the same functions with the
// same IR text.
func sameCode(a, b *ir.Program) bool {
	if len(a.Funcs) != len(b.Funcs) {
		return false
	}
	for i, fn := range a.Funcs {
		if b.Funcs[i].Name != fn.Name || b.Funcs[i].Format() != fn.Format() {
			return false
		}
	}
	return true
}

// traceCompileSuite runs one window untraced, to measure the tracing
// overhead, then whole traced passes for another. A traced operation is the
// measured compile wrapped in spans, with jit's own phase telemetry attached
// as children; after it, outside its span and its timing, the replay and
// probes run.
func traceCompileSuite(c runConfig) (*outcome, error) {
	ks, err := loadKernels()
	if err != nil {
		return nil, err
	}
	c0 := readCounters()
	plain := suitePasses(ks, c.seed, c.seconds, nil, nil)
	plainGC := readCounters().since(c0).gcCycles

	t := newTracer()
	var (
		rs          replayStats
		irInstrs    int
		fallbacks   int
		identical   = map[string]bool{}
		divergences int
	)
	traced := suitePasses(ks, c.seed+1, c.seconds, t, func(op int, k *kernel, cu *minijava.CompileUnit, res *jit.Result) {
		irInstrs += countInstrs(cu.Prog)
		fallbacks += len(res.Fallbacks)
		replayed, st := replayKernel(t, op, k, cu.Prog)
		rs.add(st)
		if sameCode(res.Prog, replayed) {
			identical[k.name] = true
		} else {
			divergences++
			fmt.Fprintf(os.Stderr, "perfbench: REPLAY DIVERGES: kernel %s: traced replay IR differs from jit.Compile\n", k.name)
		}
	})
	if divergences > 0 || len(identical) != len(ks) {
		return nil, fmt.Errorf("traced replay matched jit.Compile on %d of %d kernels (%d divergences)", len(identical), len(ks), divergences)
	}
	quality, runFailed := checkPasses(ks, traced.kept)

	oc := &outcome{
		attempted: len(plain.samples) + len(traced.samples),
		failed:    plain.failed + traced.failed + runFailed + rs.verifyErrors,
		metrics:   map[string]float64{},
		spans:     t,
	}
	m := oc.metrics
	zeroLayers(m)
	n := float64(traced.passes)
	tot, self := t.totals(), t.selfTimes()
	per := func(d time.Duration) float64 { return ms(d) / n }
	m["minijava.ms"] = per(tot["minijava"])
	m["minijava.ir_instrs"] = float64(irInstrs) / n
	m["opt.inline.ms"] = per(tot["opt.inline"])
	m["opt.ms"] = per(tot["opt"])
	m["opt.alloc_mb"] = float64(rs.optAlloc) / n / (1 << 20)
	m["opt.folded"] = float64(rs.opt.Folded) / n
	m["opt.copies"] = float64(rs.opt.Copies) / n
	m["opt.cse"] = float64(rs.opt.CSE) / n
	m["opt.dead"] = float64(rs.opt.Dead) / n
	m["opt.hoisted"] = float64(rs.opt.Hoisted) / n
	m["extelim.convert.ms"] = per(tot["extelim.convert"])
	m["extelim.ms"] = per(self["extelim"])
	m["extelim.chain.ms"] = per(tot["extelim.chain"])
	m["extelim.inserted"] = float64(rs.ext.Inserted) / n
	m["extelim.eliminated"] = float64(rs.ext.Eliminated) / n
	m["extelim.remaining"] = float64(rs.remaining) / n
	m["extelim.elim_ratio"] = ratio(float64(rs.ext.Eliminated), float64(rs.ext.Eliminated+rs.remaining))
	m["chains.build_ms"] = per(tot["chains.build"])
	m["chains.build_alloc_kb"] = float64(rs.chainAlloc) / n / 1024
	m["vrange.ms"] = per(tot["vrange"])
	m["guard.verify_ms"] = per(tot["guard.verify"])
	m["jit.ms"] = per(tot["jit"])
	m["jit.self_ms"] = per(self["jit"])
	m["jit.fallbacks"] = float64(fallbacks) / n
	for _, name := range telemetryName {
		m[name+".ms"] = per(tot[name])
	}
	m["replay.identical"] = float64(len(identical))
	m["target.code_instrs"] = float64(quality.instrs)
	// Collections per untraced pass: the replay's garbage would inflate a
	// traced count.
	m["go.gc_cycles"] = float64(plainGC) / float64(plain.passes)
	m["trace.overhead_ms"] = median(traced.cpuMS()) - median(plain.cpuMS())
	m["trace.spans"] = float64(t.count())
	fmt.Printf("compile-suite traced: %d passes, replay identical on %d/%d kernels\n", traced.passes, len(identical), len(ks))
	return oc, nil
}

// zeroLayers sets every per-layer metric to 0; a workload then fills in the
// layers its timed work calls.
func zeroLayers(m map[string]float64) {
	for _, l := range perLayer {
		m[l.name] = 0
	}
}
