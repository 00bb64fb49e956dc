package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/tiered"
)

// tieredInvocations is how many times each kernel runs under one manager.
// Every kernel's last promotion happens well before it, so each kernel run
// ends with several steady-state invocations.
const tieredInvocations = 12

func tieredConfig() tiered.Config {
	return tiered.Config{Options: jit.Options{
		Variant:     jit.All,
		Machine:     ir.IA64,
		GeneralOpts: true,
		Parallelism: 1,
	}}
}

// kernelRun is one kernel taken from cold to steady state under a fresh
// tiered manager.
type kernelRun struct {
	cpus      []time.Duration // per invocation, CPU time of the invoking thread
	allocs    []uint64        // per invocation
	lastPromo int             // invocation that made the last promotion
	tierUps   int
	steps     int64
	dynExts   int64 // last invocation
	cycles    int64 // last invocation, interpreter-tier share penalized
	failed    int
	finalized *jit.Result // steady-state artifact, when asked for
}

// steady returns the invocations after the last promotion.
func (r *kernelRun) steady() []time.Duration { return r.cpus[r.lastPromo:] }

// warmup is the CPU time from the first invocation through the one that
// made the last promotion.
func (r *kernelRun) warmup() time.Duration {
	var d time.Duration
	for _, c := range r.cpus[:r.lastPromo] {
		d += c
	}
	return d
}

// runTieredKernel takes one kernel through tieredInvocations invocations and
// checks every invocation's output against the reference. Each invocation
// is timed in the CPU time of the calling thread, which the caller keeps
// locked to it, after a calibration unit on the same thread. With a tracer, each invocation is a span whose children are
// the interpreter and promotion walls the manager measured.
func runTieredKernel(k *kernel, finalize bool, cal *calibrator, t *tracer, op int) (*kernelRun, error) {
	r := &kernelRun{}
	root := t.begin("tiered.run", op, -1)
	defer t.end(root)
	var m *tiered.Manager
	var err error
	t.wrap("tiered.new", op, root, func() { m, err = tiered.New(k.prog, tieredConfig()) })
	if err != nil {
		return nil, fmt.Errorf("kernel %s: %w", k.name, err)
	}
	for inv := 1; inv <= tieredInvocations; inv++ {
		cal.unit()
		before := m.Telemetry()
		id := t.begin("tiered.invoke", op, root)
		c0 := readCounters()
		t0 := threadCPU()
		res, err := m.Invoke()
		cpu := threadCPU() - t0
		c1 := readCounters()
		t.end(id)
		after := m.Telemetry()
		at := t.synthetic("interp", op, id, t.start(id), after.InvokeWall-before.InvokeWall)
		t.synthetic("tiered.promote", op, id, at, after.TierUpWall-before.TierUpWall)
		r.cpus = append(r.cpus, cpu)
		r.allocs = append(r.allocs, c1.since(c0).allocBytes)
		switch {
		case err != nil:
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: kernel %s: invocation %d: %v\n", k.name, inv, err)
		case res.Output != k.want:
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: kernel %s: invocation %d output differs from the Mode32 reference\n", k.name, inv)
		}
		if res != nil {
			r.steps += res.Steps
			r.dynExts = res.ExtTotal()
		}
	}
	tel := m.Telemetry()
	r.tierUps = tel.TierUps
	r.cycles = tel.InvocationCycles[len(tel.InvocationCycles)-1]
	for _, p := range m.Promotions() {
		r.lastPromo = max(r.lastPromo, p.Invocation)
	}
	if r.lastPromo >= tieredInvocations {
		return nil, fmt.Errorf("kernel %s: still promoting at invocation %d, no steady state", k.name, r.lastPromo)
	}
	if finalize {
		if r.finalized, err = m.Finalize(); err != nil {
			return nil, fmt.Errorf("kernel %s: finalize: %w", k.name, err)
		}
	}
	return r, nil
}

// tieredTotals is every kernel run of a window, with the first cycle's
// code-quality counts.
type tieredTotals struct {
	runs     []*kernelRun
	cal      calibrator
	cycles   int
	failed   int
	attempts int
	quality  codeQuality
}

// tieredCycles runs every kernel, in a seeded order per cycle, until the
// window closes (at least two cycles). The first cycle's deterministic
// counts are the reference for every later cycle. t may be nil.
func tieredCycles(ks []*kernel, seed int64, window time.Duration, t *tracer) (*tieredTotals, error) {
	defer lockThread()()
	rng := rand.New(rand.NewSource(seed))
	type fingerprint struct {
		dynExts, cycles int64
		lastPromo       int
	}
	first := make([]fingerprint, len(ks))
	tt := &tieredTotals{}
	deadline := time.Now().Add(window)
	for tt.cycles < 2 || time.Now().Before(deadline) {
		for _, i := range rng.Perm(len(ks)) {
			k := ks[i]
			// Collect the previous kernel's compile garbage now, so its
			// cost is not charged to this kernel's invocations.
			runtime.GC()
			r, err := runTieredKernel(k, tt.cycles == 0, &tt.cal, t, len(tt.runs))
			if err != nil {
				return nil, err
			}
			tt.runs = append(tt.runs, r)
			tt.attempts += len(r.cpus)
			tt.failed += r.failed
			fp := fingerprint{r.dynExts, r.cycles, r.lastPromo}
			if tt.cycles == 0 {
				first[i] = fp
				tt.quality.add(codeQuality{
					staticExts: r.finalized.StaticExts, dynExts: r.dynExts,
					cycles: r.cycles, instrs: loweredInstrs(r.finalized),
				})
			} else if fp != first[i] {
				tt.failed++
				fmt.Fprintf(os.Stderr, "perfbench: NONDETERMINISM: kernel %s tiered run differs from the first cycle: %+v vs %+v\n", k.name, fp, first[i])
			}
		}
		tt.cycles++
	}
	return tt, nil
}

// steadyMS returns every steady-state invocation's CPU time in ms.
func (tt *tieredTotals) steadyMS() []float64 {
	var xs []float64
	for _, r := range tt.runs {
		for _, w := range r.steady() {
			xs = append(xs, ms(w))
		}
	}
	return xs
}

func runTieredSteady(c runConfig) (*outcome, error) {
	if c.trace {
		return traceTieredSteady(c)
	}
	ks, setupS, err := setups(loadKernels, func([]*kernel) {})
	if err != nil {
		return nil, err
	}
	tt, err := tieredCycles(ks, c.seed, c.seconds, nil)
	if err != nil {
		return nil, err
	}
	steady := tt.steadyMS()
	var warm []float64
	var steadyAlloc float64
	for _, r := range tt.runs {
		warm = append(warm, ms(r.warmup()))
		for _, a := range r.allocs[r.lastPromo:] {
			steadyAlloc += float64(a)
		}
	}
	oc := &outcome{attempted: tt.attempts, failed: tt.failed, metrics: map[string]float64{}}
	m := oc.metrics
	if err := quantiles(m, "op_ms", steady, 50, 90); err != nil {
		return nil, err
	}
	if err := quantiles(m, "cold_ms", warm, 50); err != nil {
		return nil, err
	}
	m["setup_s"] = setupS
	m["ok_ratio"] = 1 - ratio(float64(oc.failed), float64(oc.attempted))
	// Steady invocations per CPU-second, median over cycles.
	var cycleRates []float64
	for i := 0; i+len(ks) <= len(tt.runs); i += len(ks) {
		var n, cpu float64
		for _, r := range tt.runs[i : i+len(ks)] {
			for _, d := range r.steady() {
				n++
				cpu += d.Seconds()
			}
		}
		cycleRates = append(cycleRates, n/cpu)
	}
	m["ops_per_s"] = median(cycleRates)
	m["alloc_kb_per_op"] = steadyAlloc / float64(len(steady)) / 1024
	m["static_exts"] = float64(tt.quality.staticExts)
	m["dyn_exts"] = float64(tt.quality.dynExts)
	m["run_mcycles"] = float64(tt.quality.cycles) / 1e6
	oc.speed = tt.cal.speed()
	return oc, nil
}

// traceTieredSteady measures one window untraced for the overhead figure,
// then traces whole cycles for another.
func traceTieredSteady(c runConfig) (*outcome, error) {
	ks, err := loadKernels()
	if err != nil {
		return nil, err
	}
	c0 := readCounters()
	plain, err := tieredCycles(ks, c.seed, c.seconds, nil)
	if err != nil {
		return nil, err
	}
	gc := readCounters().since(c0)
	t := newTracer()
	tt, err := tieredCycles(ks, c.seed+1, c.seconds, t)
	if err != nil {
		return nil, err
	}

	oc := &outcome{attempted: plain.attempts + tt.attempts, failed: plain.failed + tt.failed, metrics: map[string]float64{}, spans: t}
	m := oc.metrics
	zeroLayers(m)
	n := float64(tt.cycles)
	var tierUps, lastPromo int
	var steps int64
	for _, r := range tt.runs {
		tierUps += r.tierUps
		lastPromo += r.lastPromo
		steps += r.steps
	}
	tot := t.totals()
	m["interp.ms"] = ms(tot["interp"]) / n
	m["interp.msteps"] = float64(steps) / 1e6 / n
	m["interp.ns_per_step"] = ratio(float64(tot["interp"]), float64(steps))
	m["tiered.promote_ms"] = ms(tot["tiered.promote"]) / n
	m["jit.ms"] = m["tiered.promote_ms"]
	m["tiered.tier_ups"] = float64(tierUps) / n
	m["tiered.invokes_to_steady"] = float64(lastPromo) / float64(len(tt.runs))
	m["target.code_instrs"] = float64(tt.quality.instrs)
	m["go.gc_cycles"] = float64(gc.gcCycles) / float64(plain.cycles)
	m["trace.overhead_ms"] = median(tt.steadyMS()) - median(plain.steadyMS())
	m["trace.spans"] = float64(t.count())
	return oc, nil
}
