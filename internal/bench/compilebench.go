package bench

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"signext/internal/codecache"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/target"
	"signext/internal/tiered"
	"signext/internal/workloads"
)

// CompileBenchOptions configures a compile-driver benchmark run.
type CompileBenchOptions struct {
	Machine     ir.Machine
	Variant     jit.Variant // defaults to jit.All
	UseProfile  bool
	Parallelism int // worker count of the parallel leg; 0 = runtime.GOMAXPROCS(0)
	Repeats     int // timing repeats per leg, minimum wall kept; 0 = 3

	// Cache adds a cold/warm pass per workload: one compile against an empty
	// compile cache (cold), then Repeats compiles against the now-populated
	// cache with the minimum wall kept (warm), recording hit/miss counters,
	// the warm-start speedup and a bit-identity check between the two.
	Cache      bool
	CacheBytes int64 // cache capacity; 0 = 64 MiB

	// Tiered adds a tiered-runtime pass per workload: the program runs under
	// the tiered execution manager (profiling interpreter tier, promotion to
	// the compiled tier at the hotness threshold) for TieredInvocations
	// invocations, recording tier-up counts, tier-up compile wall and the
	// modelled steady-state speedup, plus an identity check: every
	// invocation's output and the steady-state Finalize artifact must match a
	// one-shot compile fed the gathered profile.
	Tiered            bool
	TieredInvocations int   // invocations per workload; 0 = 4
	HotThreshold      int64 // promotion threshold; 0 = tiered.DefaultHotThreshold

	// Peep adds a peephole pass per workload: the program is recompiled with
	// the rule-table peephole pass (internal/peep) enabled and both builds
	// run under the deterministic cycle model, recording the rewrite count,
	// the cycle delta and an output-identity check.
	Peep bool

	// Interp adds an interpreter microbenchmark pass per workload: the
	// program runs under both dispatch engines in the profiling-tier
	// configuration (switch-dispatch tree walker vs token-threaded
	// bytecode), recording wall times, the threaded speedup and a full
	// result-identity check, plus a threaded run of the optimized program in
	// the compiled-tier configuration. The ratio of threaded-interpreter
	// nanoseconds per modelled cycle between the two tiers — both on the
	// dispatcher tiered.Manager.Invoke runs — is the measured
	// interpreter-tier penalty; when the Tiered pass is also enabled it
	// replaces the modelled tiered.DefaultInterpPenalty, so the recorded
	// tier-up speedups are calibrated against this machine rather than
	// assumed.
	Interp bool
}

// CompileBenchWorkload is one workload's compile measurement: the same
// program compiled sequentially and with the worker pool.
type CompileBenchWorkload struct {
	Name      string  `json:"name"`
	Funcs     int     `json:"funcs"`
	SeqWallNS int64   `json:"seq_wall_ns"` // Parallelism = 1, min over repeats
	ParWallNS int64   `json:"par_wall_ns"` // Parallelism = N, min over repeats
	WorkNS    int64   `json:"work_ns"`     // Timing.Total() of the parallel leg
	Speedup   float64 `json:"speedup"`     // SeqWallNS / ParWallNS
	Identical bool    `json:"identical"`   // parallel result bit-identical to sequential
	Exts      int     `json:"static_exts"` // surviving extensions (same both legs)
	Elim      int     `json:"eliminated"`  // eliminated extensions (same both legs)

	// Phases is the per-function, per-phase telemetry of the parallel leg's
	// final repeat — the compile-time trajectory record.
	Phases []jit.PhaseRecord `json:"phases"`

	// Cold/warm pass (present only when CompileBenchOptions.Cache is set): one
	// compile against an empty cache, then Repeats fully-warm compiles with the
	// minimum wall kept.
	ColdWallNS     int64   `json:"cold_wall_ns,omitempty"`
	WarmWallNS     int64   `json:"warm_wall_ns,omitempty"`
	WarmSpeedup    float64 `json:"warm_speedup,omitempty"`    // ColdWallNS / WarmWallNS
	CacheIdentical bool    `json:"cache_identical,omitempty"` // cold and warm bit-identical to the uncached legs
	CacheHits      int     `json:"cache_hits,omitempty"`      // warm pass per-function hits
	CacheMisses    int     `json:"cache_misses,omitempty"`    // warm pass misses (must be 0)

	// Tiered pass (present only when CompileBenchOptions.Tiered is set).
	// Cycles are the interpreter's deterministic cost model, with the
	// interpreter-tier penalty applied, so the steady-state speedup is
	// modelled, reproducible and machine-independent.
	TierUps          int     `json:"tier_ups,omitempty"`           // functions promoted to the compiled tier
	TierUpWallNS     int64   `json:"tier_up_wall_ns,omitempty"`    // wall clock of promotion compile rounds
	TierColdCycles   int64   `json:"tier_cold_cycles,omitempty"`   // modelled cycles, first (all-interpreter) invocation
	TierSteadyCycles int64   `json:"tier_steady_cycles,omitempty"` // modelled cycles, last (steady-state) invocation
	TierSpeedup      float64 `json:"tier_speedup,omitempty"`       // TierColdCycles / TierSteadyCycles
	TierIdentical    bool    `json:"tier_identical,omitempty"`     // outputs + Finalize identical to the one-shot profile compile

	// Interpreter microbenchmark pass (present only when
	// CompileBenchOptions.Interp is set). Wall times are minima over
	// Repeats; identity covers output, traps, step and cycle accounting,
	// dynamic extension counts, branch profiles and call counts.
	InterpSwitchNS   int64   `json:"interp_switch_ns,omitempty"`   // profiling tier, switch dispatch
	InterpThreadedNS int64   `json:"interp_threaded_ns,omitempty"` // profiling tier, threaded dispatch
	InterpSpeedup    float64 `json:"interp_speedup,omitempty"`     // InterpSwitchNS / InterpThreadedNS
	InterpCompiledNS int64   `json:"interp_compiled_ns,omitempty"` // compiled tier (optimized prog, Mode64), threaded
	InterpIdentical  bool    `json:"interp_identical,omitempty"`   // threaded results bit-identical to switch
	MeasuredPenalty  float64 `json:"measured_penalty,omitempty"`   // (threaded ns/cycle) / (compiled ns/cycle)

	// Peephole pass (present only when CompileBenchOptions.Peep is set): the
	// same workload recompiled with the rule-table peephole pass enabled,
	// with both builds executed under the deterministic cycle model. The
	// peeped build must print the same output and must never cost more
	// modelled cycles — a pessimizing rule breaks Validate, not just a
	// benchmark number.
	PeepWallNS    int64 `json:"peep_wall_ns,omitempty"`   // compile wall with -peep, min over repeats
	PeepRewrites  int   `json:"peep_rewrites,omitempty"`  // rule-table rewrites applied
	BaseCycles    int64 `json:"base_cycles,omitempty"`    // modelled cycles without the pass
	PeepCycles    int64 `json:"peep_cycles,omitempty"`    // modelled cycles with the pass
	PeepIdentical bool  `json:"peep_identical,omitempty"` // outputs bit-identical
}

// CompileBenchResult is the BENCH_compile.json artifact: the compile-driver
// benchmark over one workload suite.
type CompileBenchResult struct {
	Suite       string                 `json:"suite"`
	Machine     string                 `json:"machine"`
	Variant     string                 `json:"variant"`
	Parallelism int                    `json:"parallelism"` // resolved worker count of the parallel leg
	NumCPU      int                    `json:"num_cpu"`
	Repeats     int                    `json:"repeats"`
	Workloads   []CompileBenchWorkload `json:"workloads"`
	TotalSeqNS  int64                  `json:"total_seq_wall_ns"`
	TotalParNS  int64                  `json:"total_par_wall_ns"`
	Speedup     float64                `json:"speedup"` // TotalSeqNS / TotalParNS

	// Cold/warm aggregates (present only when the compile cache was enabled).
	CacheEnabled bool             `json:"cache_enabled,omitempty"`
	TotalColdNS  int64            `json:"total_cold_wall_ns,omitempty"`
	TotalWarmNS  int64            `json:"total_warm_wall_ns,omitempty"`
	WarmSpeedup  float64          `json:"warm_speedup,omitempty"` // TotalColdNS / TotalWarmNS
	CacheStats   *codecache.Stats `json:"cache_stats,omitempty"`  // counters summed over per-workload caches

	// Tiered aggregates (present only when the tiered pass was enabled).
	TieredEnabled     bool    `json:"tiered_enabled,omitempty"`
	TieredInvocations int     `json:"tiered_invocations,omitempty"`
	TotalTierUps      int     `json:"total_tier_ups,omitempty"`
	TotalTierUpNS     int64   `json:"total_tier_up_wall_ns,omitempty"`
	TierSpeedup       float64 `json:"tier_speedup,omitempty"` // sum cold cycles / sum steady cycles

	// Interpreter microbenchmark aggregates (present only when the interp
	// pass was enabled).
	InterpEnabled   bool    `json:"interp_enabled,omitempty"`
	TotalInterpSwNS int64   `json:"total_interp_switch_ns,omitempty"`
	TotalInterpThNS int64   `json:"total_interp_threaded_ns,omitempty"`
	InterpSpeedup   float64 `json:"interp_speedup,omitempty"`   // sum switch walls / sum threaded walls
	MeasuredPenalty float64 `json:"measured_penalty,omitempty"` // suite-wide (threaded ns/cycle) / (compiled ns/cycle)

	// Peephole aggregates (present only when the peep pass was enabled).
	PeepEnabled     bool    `json:"peep_enabled,omitempty"`
	TotalRewrites   int     `json:"total_peep_rewrites,omitempty"`
	TotalBaseCycles int64   `json:"total_base_cycles,omitempty"`
	TotalPeepCycles int64   `json:"total_peep_cycles,omitempty"`
	PeepCycleGain   float64 `json:"peep_cycle_gain,omitempty"` // sum base cycles / sum peeped cycles
}

// compileFingerprint captures everything that must not depend on the worker
// count: IR, statistics, telemetry shape (minus walls) and fallbacks.
func compileFingerprint(res *jit.Result) string {
	var b strings.Builder
	for _, fn := range res.Prog.Funcs {
		b.WriteString(fn.Format())
	}
	fmt.Fprintf(&b, "stats=%+v static=%d rewrites=%d\n", res.Stats, res.StaticExts, res.PeepRewrites)
	for _, r := range res.Telemetry {
		if r.Phase == jit.PhaseCache {
			// Warm compiles add a lookup-cost record per function; it carries
			// no correctness content and must not break warm/cold identity.
			continue
		}
		fmt.Fprintf(&b, "tel %s %s %d %d %d %d %v\n", r.Func, r.Phase, r.Eliminated, r.Inserted, r.Dummies, r.Rewrites, r.Fallback)
	}
	for _, fb := range res.Fallbacks {
		fmt.Fprintf(&b, "fb %s %s\n", fb.Phase, fb.Func)
	}
	return b.String()
}

// CompileBench compiles every workload under the chosen variant twice — once
// strictly sequentially, once on the worker pool — verifying the two produce
// bit-identical results and recording wall times and per-phase telemetry.
func CompileBench(ws []workloads.Workload, o CompileBenchOptions) (*CompileBenchResult, error) {
	if o.Repeats <= 0 {
		o.Repeats = 3
	}
	par := o.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	variant := o.Variant
	if variant == jit.Baseline {
		variant = jit.All // zero value; Baseline has no sign-ext phase to measure
	}
	res := &CompileBenchResult{
		Machine:     o.Machine.String(),
		Variant:     variant.String(),
		Parallelism: par,
		NumCPU:      runtime.NumCPU(),
		Repeats:     o.Repeats,
	}
	if len(ws) > 0 {
		res.Suite = ws[0].Suite
		for _, w := range ws {
			if w.Suite != res.Suite {
				res.Suite = "all"
				break
			}
		}
	}
	cacheBytes := o.CacheBytes
	if cacheBytes <= 0 {
		cacheBytes = 64 << 20
	}
	var agg codecache.Stats
	res.CacheEnabled = o.Cache
	tieredInv := o.TieredInvocations
	if tieredInv <= 0 {
		tieredInv = 4
	}
	res.TieredEnabled = o.Tiered
	if o.Tiered {
		res.TieredInvocations = tieredInv
	}
	res.InterpEnabled = o.Interp
	res.PeepEnabled = o.Peep
	var sumColdCycles, sumSteadyCycles int64
	var sumInterpCyc32, sumInterpCyc64, sumInterpCompNS int64
	for _, w := range ws {
		cu, err := minijava.Compile(w.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		var profile interp.Profile
		if o.UseProfile {
			ref, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32, Profile: true})
			if err != nil {
				return nil, fmt.Errorf("%s: profile run: %w", w.Name, err)
			}
			profile = ref.Profile
		}
		jo := jit.Options{
			Variant: variant, Machine: o.Machine, GeneralOpts: true, Profile: profile,
		}
		leg := func(parallelism int) (*jit.Result, time.Duration, error) {
			jo.Parallelism = parallelism
			var best *jit.Result
			var bestWall time.Duration
			for r := 0; r < o.Repeats; r++ {
				cr, err := jit.Compile(cu.Prog, jo)
				if err != nil {
					return nil, 0, err
				}
				if best == nil || cr.Timing.Wall < bestWall {
					best, bestWall = cr, cr.Timing.Wall
				}
			}
			return best, bestWall, nil
		}
		seq, seqWall, err := leg(1)
		if err != nil {
			return nil, fmt.Errorf("%s: sequential compile: %w", w.Name, err)
		}
		pr, parWall, err := leg(par)
		if err != nil {
			return nil, fmt.Errorf("%s: parallel compile: %w", w.Name, err)
		}
		wl := CompileBenchWorkload{
			Name:      w.Name,
			Funcs:     len(cu.Prog.Funcs),
			SeqWallNS: int64(seqWall),
			ParWallNS: int64(parWall),
			WorkNS:    int64(pr.Timing.Total()),
			Identical: compileFingerprint(seq) == compileFingerprint(pr),
			Exts:      pr.StaticExts,
			Elim:      pr.Stats.Eliminated,
			Phases:    pr.Telemetry,
		}
		if wl.ParWallNS > 0 {
			wl.Speedup = float64(wl.SeqWallNS) / float64(wl.ParWallNS)
		}
		if o.Cache {
			// Cold/warm pass: a fresh per-workload cache keeps the cold leg
			// honestly cold even when workloads share identical functions.
			cache := codecache.New(cacheBytes)
			jo.Cache = cache
			jo.Parallelism = par
			cold, err := jit.Compile(cu.Prog, jo)
			if err != nil {
				return nil, fmt.Errorf("%s: cold compile: %w", w.Name, err)
			}
			if cold.CacheStats == nil || cold.CacheStats.Hits != 0 {
				return nil, fmt.Errorf("%s: cold compile was not cold: %+v", w.Name, cold.CacheStats)
			}
			warm, warmWall, err := leg(par)
			if err != nil {
				return nil, fmt.Errorf("%s: warm compile: %w", w.Name, err)
			}
			jo.Cache = nil
			wl.ColdWallNS = int64(cold.Timing.Wall)
			wl.WarmWallNS = int64(warmWall)
			if wl.WarmWallNS > 0 {
				wl.WarmSpeedup = float64(wl.ColdWallNS) / float64(wl.WarmWallNS)
			}
			ref := compileFingerprint(pr)
			wl.CacheIdentical = compileFingerprint(cold) == ref && compileFingerprint(warm) == ref
			wl.CacheHits = warm.CacheStats.Hits
			wl.CacheMisses = warm.CacheStats.Misses
			res.TotalColdNS += wl.ColdWallNS
			res.TotalWarmNS += wl.WarmWallNS
			s := cache.Stats()
			agg.Hits += s.Hits
			agg.Misses += s.Misses
			agg.Evictions += s.Evictions
			agg.ParanoidRejects += s.ParanoidRejects
			agg.Entries += s.Entries
			agg.Bytes += s.Bytes
			agg.CapacityBytes = s.CapacityBytes
		}
		if o.Peep {
			jo.Peep = true
			peeped, peepWall, err := leg(par)
			jo.Peep = false
			if err != nil {
				return nil, fmt.Errorf("%s: peep compile: %w", w.Name, err)
			}
			cost := target.CostModel(o.Machine)
			baseRun, err := interp.Run(pr.Prog, "main", interp.Options{
				Mode: interp.Mode64, Machine: o.Machine, Cost: cost,
			})
			if err != nil {
				return nil, fmt.Errorf("%s: base run: %w", w.Name, err)
			}
			peepRun, err := interp.Run(peeped.Prog, "main", interp.Options{
				Mode: interp.Mode64, Machine: o.Machine, Cost: cost,
			})
			if err != nil {
				return nil, fmt.Errorf("%s: peeped run: %w", w.Name, err)
			}
			wl.PeepWallNS = int64(peepWall)
			wl.PeepRewrites = peeped.PeepRewrites
			wl.BaseCycles = baseRun.Cycles
			wl.PeepCycles = peepRun.Cycles
			wl.PeepIdentical = baseRun.Output == peepRun.Output
			res.TotalRewrites += wl.PeepRewrites
			res.TotalBaseCycles += wl.BaseCycles
			res.TotalPeepCycles += wl.PeepCycles
		}
		var measuredPenalty float64
		if o.Interp {
			cost := target.CostModel(o.Machine)
			profOpts := interp.Options{
				Mode: interp.Mode32, Machine: o.Machine,
				Profile: true, CountCalls: true, Cost: cost,
			}
			sw, swNS, err := timeInterp(cu.Prog, profOpts, interp.DispatchSwitch, o.Repeats)
			if err != nil {
				return nil, fmt.Errorf("%s: interp switch leg: %w", w.Name, err)
			}
			th, thNS, err := timeInterp(cu.Prog, profOpts, interp.DispatchThreaded, o.Repeats)
			if err != nil {
				return nil, fmt.Errorf("%s: interp threaded leg: %w", w.Name, err)
			}
			comp, compNS, err := timeInterp(pr.Prog, interp.Options{
				Mode: interp.Mode64, Machine: o.Machine, Cost: cost,
			}, interp.DispatchThreaded, o.Repeats)
			if err != nil {
				return nil, fmt.Errorf("%s: interp compiled leg: %w", w.Name, err)
			}
			wl.InterpSwitchNS = swNS
			wl.InterpThreadedNS = thNS
			wl.InterpCompiledNS = compNS
			wl.InterpIdentical = interpIdentical(sw, th)
			if thNS > 0 {
				wl.InterpSpeedup = float64(swNS) / float64(thNS)
			}
			// The measured interpreter-tier penalty: how many times more wall
			// time the profiling interpreter spends per modelled cycle than
			// the interpreter running the optimized compiled form. This is
			// what the tiered runtime's modelled InterpPenalty approximates.
			// Both legs use threaded dispatch, as tiered.Manager.Invoke does.
			if th.Cycles > 0 && comp.Cycles > 0 && compNS > 0 {
				wl.MeasuredPenalty = (float64(thNS) / float64(th.Cycles)) /
					(float64(compNS) / float64(comp.Cycles))
				measuredPenalty = wl.MeasuredPenalty
			}
			res.TotalInterpSwNS += swNS
			res.TotalInterpThNS += thNS
			sumInterpCyc32 += th.Cycles
			sumInterpCyc64 += comp.Cycles
			sumInterpCompNS += compNS
		}
		if o.Tiered {
			mgr, err := tiered.New(cu.Prog, tiered.Config{
				Options:      jit.Options{Variant: variant, Machine: o.Machine, GeneralOpts: true, Parallelism: par},
				HotThreshold: o.HotThreshold,
				// With the interp pass enabled the tier split is weighted by
				// the measured penalty, not the modelled default.
				InterpPenalty: measuredPenalty,
			})
			if err != nil {
				return nil, fmt.Errorf("%s: tiered: %w", w.Name, err)
			}
			var outputs []string
			for i := 0; i < tieredInv; i++ {
				tr, err := mgr.Invoke()
				if err != nil {
					return nil, fmt.Errorf("%s: tiered invocation %d: %w", w.Name, i+1, err)
				}
				outputs = append(outputs, tr.Output)
			}
			final, err := mgr.Finalize()
			if err != nil {
				return nil, fmt.Errorf("%s: tiered finalize: %w", w.Name, err)
			}
			// The identity oracle: one-shot compilation fed the gathered
			// profile. By the frozen-profile invariant its bodies match the
			// promoted ones, and its execution output every tiered invocation.
			oneshot, err := jit.Compile(cu.Prog, jit.Options{
				Variant: variant, Machine: o.Machine, GeneralOpts: true,
				Parallelism: par, Profile: mgr.Profile().ToInterp(),
			})
			if err != nil {
				return nil, fmt.Errorf("%s: tiered one-shot compile: %w", w.Name, err)
			}
			run, err := jit.Execute(oneshot, "main")
			if err != nil {
				return nil, fmt.Errorf("%s: tiered one-shot run: %w", w.Name, err)
			}
			wl.TierIdentical = compileFingerprint(final) == compileFingerprint(oneshot)
			for _, out := range outputs {
				if out != run.Output {
					wl.TierIdentical = false
				}
			}
			tel := mgr.Telemetry()
			wl.TierUps = tel.TierUps
			wl.TierUpWallNS = int64(tel.TierUpWall)
			wl.TierColdCycles = tel.InvocationCycles[0]
			wl.TierSteadyCycles = tel.InvocationCycles[len(tel.InvocationCycles)-1]
			if wl.TierSteadyCycles > 0 {
				wl.TierSpeedup = float64(wl.TierColdCycles) / float64(wl.TierSteadyCycles)
			}
			res.TotalTierUps += wl.TierUps
			res.TotalTierUpNS += wl.TierUpWallNS
			sumColdCycles += wl.TierColdCycles
			sumSteadyCycles += wl.TierSteadyCycles
		}
		res.TotalSeqNS += wl.SeqWallNS
		res.TotalParNS += wl.ParWallNS
		res.Workloads = append(res.Workloads, wl)
	}
	if res.TotalParNS > 0 {
		res.Speedup = float64(res.TotalSeqNS) / float64(res.TotalParNS)
	}
	if o.Cache {
		if res.TotalWarmNS > 0 {
			res.WarmSpeedup = float64(res.TotalColdNS) / float64(res.TotalWarmNS)
		}
		res.CacheStats = &agg
	}
	if o.Tiered && sumSteadyCycles > 0 {
		res.TierSpeedup = float64(sumColdCycles) / float64(sumSteadyCycles)
	}
	if o.Peep && res.TotalPeepCycles > 0 {
		res.PeepCycleGain = float64(res.TotalBaseCycles) / float64(res.TotalPeepCycles)
	}
	if o.Interp {
		if res.TotalInterpThNS > 0 {
			res.InterpSpeedup = float64(res.TotalInterpSwNS) / float64(res.TotalInterpThNS)
		}
		if sumInterpCyc32 > 0 && sumInterpCyc64 > 0 && sumInterpCompNS > 0 {
			res.MeasuredPenalty = (float64(res.TotalInterpThNS) / float64(sumInterpCyc32)) /
				(float64(sumInterpCompNS) / float64(sumInterpCyc64))
		}
	}
	return res, nil
}

// timeInterp runs prog under opts with the given dispatcher repeats times,
// keeping the fastest wall clock, and returns the (deterministic) result.
func timeInterp(prog *ir.Program, opts interp.Options, d interp.Dispatch, repeats int) (*interp.Result, int64, error) {
	opts.Dispatch = d
	var best int64
	var res *interp.Result
	for r := 0; r < repeats; r++ {
		t0 := time.Now()
		out, err := interp.Run(prog, "main", opts)
		wall := time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, 0, err
		}
		if res == nil || wall < best {
			res, best = out, wall
		}
	}
	return res, best, nil
}

// interpIdentical reports whether two interpreter results are bit-identical
// in every observable: output, steps, cycles and their per-mode split,
// dynamic extension count, branch profile and call counts.
func interpIdentical(a, b *interp.Result) bool {
	return a.Output == b.Output &&
		a.Steps == b.Steps &&
		a.Cycles == b.Cycles &&
		a.ModeCycles == b.ModeCycles &&
		a.Ext == b.Ext &&
		reflect.DeepEqual(a.Profile, b.Profile) &&
		reflect.DeepEqual(a.Calls, b.Calls)
}

// Validate sanity-checks a decoded BENCH_compile.json: every workload must
// have been measured, produced identical sequential/parallel results, and
// carry complete telemetry. It returns nil for a healthy artifact.
func (r *CompileBenchResult) Validate() error {
	if len(r.Workloads) == 0 {
		return fmt.Errorf("compilebench: no workloads recorded")
	}
	if r.Parallelism < 1 || r.NumCPU < 1 || r.Repeats < 1 {
		return fmt.Errorf("compilebench: implausible run parameters: parallelism=%d num_cpu=%d repeats=%d",
			r.Parallelism, r.NumCPU, r.Repeats)
	}
	for _, w := range r.Workloads {
		if !w.Identical {
			return fmt.Errorf("compilebench: %s: parallel compile NOT identical to sequential", w.Name)
		}
		if w.SeqWallNS <= 0 || w.ParWallNS <= 0 {
			return fmt.Errorf("compilebench: %s: missing wall times (seq=%d par=%d)", w.Name, w.SeqWallNS, w.ParWallNS)
		}
		if w.Funcs < 1 {
			return fmt.Errorf("compilebench: %s: no functions", w.Name)
		}
		if len(w.Phases) == 0 {
			return fmt.Errorf("compilebench: %s: no phase telemetry", w.Name)
		}
		var work int64
		perFunc := map[string]bool{}
		for _, p := range w.Phases {
			if p.Wall < 0 {
				return fmt.Errorf("compilebench: %s: negative phase wall in %s/%s", w.Name, p.Func, p.Phase)
			}
			work += int64(p.Wall)
			perFunc[p.Func] = true
		}
		if work != w.WorkNS {
			return fmt.Errorf("compilebench: %s: phase walls sum to %d, recorded work %d (accounting broken)",
				w.Name, work, w.WorkNS)
		}
		if !speedupConsistent(w.Speedup, w.SeqWallNS, w.ParWallNS) {
			return fmt.Errorf("compilebench: %s: speedup %.4f inconsistent with walls %d/%d",
				w.Name, w.Speedup, w.SeqWallNS, w.ParWallNS)
		}
		if r.CacheEnabled {
			if !w.CacheIdentical {
				return fmt.Errorf("compilebench: %s: cached compile NOT identical to uncached", w.Name)
			}
			if w.ColdWallNS <= 0 || w.WarmWallNS <= 0 {
				return fmt.Errorf("compilebench: %s: missing cold/warm walls (cold=%d warm=%d)",
					w.Name, w.ColdWallNS, w.WarmWallNS)
			}
			if w.CacheHits < 1 {
				return fmt.Errorf("compilebench: %s: warm pass recorded no cache hits", w.Name)
			}
			if w.CacheMisses != 0 {
				return fmt.Errorf("compilebench: %s: warm pass was not fully warm (%d misses)", w.Name, w.CacheMisses)
			}
			if !speedupConsistent(w.WarmSpeedup, w.ColdWallNS, w.WarmWallNS) {
				return fmt.Errorf("compilebench: %s: warm speedup %.4f inconsistent with walls %d/%d",
					w.Name, w.WarmSpeedup, w.ColdWallNS, w.WarmWallNS)
			}
		}
		if r.TieredEnabled {
			if !w.TierIdentical {
				return fmt.Errorf("compilebench: %s: tiered execution NOT identical to one-shot profile compile", w.Name)
			}
			if w.TierUps < 1 {
				return fmt.Errorf("compilebench: %s: tiered pass recorded no promotions", w.Name)
			}
			if w.TierUpWallNS <= 0 {
				return fmt.Errorf("compilebench: %s: %d promotions but no tier-up wall recorded", w.Name, w.TierUps)
			}
			if w.TierColdCycles <= 0 || w.TierSteadyCycles <= 0 {
				return fmt.Errorf("compilebench: %s: missing tiered cycle record (cold=%d steady=%d)",
					w.Name, w.TierColdCycles, w.TierSteadyCycles)
			}
			if !speedupConsistent(w.TierSpeedup, w.TierColdCycles, w.TierSteadyCycles) {
				return fmt.Errorf("compilebench: %s: tiered speedup %.4f inconsistent with cycles %d/%d",
					w.Name, w.TierSpeedup, w.TierColdCycles, w.TierSteadyCycles)
			}
		}
		if r.PeepEnabled {
			if !w.PeepIdentical {
				return fmt.Errorf("compilebench: %s: peeped build output NOT identical to base", w.Name)
			}
			if w.PeepWallNS <= 0 {
				return fmt.Errorf("compilebench: %s: missing peep compile wall", w.Name)
			}
			if w.BaseCycles <= 0 || w.PeepCycles <= 0 {
				return fmt.Errorf("compilebench: %s: missing peep cycle record (base=%d peep=%d)",
					w.Name, w.BaseCycles, w.PeepCycles)
			}
			if w.PeepCycles > w.BaseCycles {
				return fmt.Errorf("compilebench: %s: peephole pass REGRESSED cycles (%d > %d)",
					w.Name, w.PeepCycles, w.BaseCycles)
			}
		}
		if r.InterpEnabled {
			if !w.InterpIdentical {
				return fmt.Errorf("compilebench: %s: threaded dispatch NOT identical to switch dispatch", w.Name)
			}
			if w.InterpSwitchNS <= 0 || w.InterpThreadedNS <= 0 || w.InterpCompiledNS <= 0 {
				return fmt.Errorf("compilebench: %s: missing interp walls (switch=%d threaded=%d compiled=%d)",
					w.Name, w.InterpSwitchNS, w.InterpThreadedNS, w.InterpCompiledNS)
			}
			if !speedupConsistent(w.InterpSpeedup, w.InterpSwitchNS, w.InterpThreadedNS) {
				return fmt.Errorf("compilebench: %s: interp speedup %.4f inconsistent with walls %d/%d",
					w.Name, w.InterpSpeedup, w.InterpSwitchNS, w.InterpThreadedNS)
			}
			if w.MeasuredPenalty <= 0 {
				return fmt.Errorf("compilebench: %s: missing measured interpreter penalty", w.Name)
			}
		}
	}
	var sumSeq, sumPar int64
	for _, w := range r.Workloads {
		sumSeq += w.SeqWallNS
		sumPar += w.ParWallNS
	}
	if sumSeq != r.TotalSeqNS || sumPar != r.TotalParNS {
		return fmt.Errorf("compilebench: totals %d/%d do not match workload sums %d/%d (truncated artifact?)",
			r.TotalSeqNS, r.TotalParNS, sumSeq, sumPar)
	}
	if r.Speedup <= 0 {
		return fmt.Errorf("compilebench: missing aggregate speedup")
	}
	if !speedupConsistent(r.Speedup, r.TotalSeqNS, r.TotalParNS) {
		return fmt.Errorf("compilebench: aggregate speedup %.4f inconsistent with totals %d/%d",
			r.Speedup, r.TotalSeqNS, r.TotalParNS)
	}
	if r.CacheEnabled {
		var sumCold, sumWarm int64
		for _, w := range r.Workloads {
			sumCold += w.ColdWallNS
			sumWarm += w.WarmWallNS
		}
		if sumCold != r.TotalColdNS || sumWarm != r.TotalWarmNS {
			return fmt.Errorf("compilebench: cold/warm totals %d/%d do not match workload sums %d/%d",
				r.TotalColdNS, r.TotalWarmNS, sumCold, sumWarm)
		}
		if !speedupConsistent(r.WarmSpeedup, r.TotalColdNS, r.TotalWarmNS) {
			return fmt.Errorf("compilebench: warm speedup %.4f inconsistent with totals %d/%d",
				r.WarmSpeedup, r.TotalColdNS, r.TotalWarmNS)
		}
		if r.CacheStats == nil {
			return fmt.Errorf("compilebench: cache enabled but no cache stats recorded")
		}
		if r.CacheStats.Hits == 0 || r.CacheStats.Misses == 0 {
			return fmt.Errorf("compilebench: implausible cache counters (hits=%d misses=%d): a cold/warm run has both",
				r.CacheStats.Hits, r.CacheStats.Misses)
		}
	}
	if r.TieredEnabled {
		if r.TieredInvocations < 2 {
			return fmt.Errorf("compilebench: tiered pass needs at least 2 invocations (cold and steady), recorded %d",
				r.TieredInvocations)
		}
		var sumUps int
		var sumWall, sumCold, sumSteady int64
		for _, w := range r.Workloads {
			sumUps += w.TierUps
			sumWall += w.TierUpWallNS
			sumCold += w.TierColdCycles
			sumSteady += w.TierSteadyCycles
		}
		if sumUps != r.TotalTierUps || sumWall != r.TotalTierUpNS {
			return fmt.Errorf("compilebench: tier-up totals %d/%dns do not match workload sums %d/%dns",
				r.TotalTierUps, r.TotalTierUpNS, sumUps, sumWall)
		}
		if !speedupConsistent(r.TierSpeedup, sumCold, sumSteady) {
			return fmt.Errorf("compilebench: tiered speedup %.4f inconsistent with cycle sums %d/%d",
				r.TierSpeedup, sumCold, sumSteady)
		}
	}
	if r.PeepEnabled {
		var sumRw int
		var sumBase, sumPeep int64
		for _, w := range r.Workloads {
			sumRw += w.PeepRewrites
			sumBase += w.BaseCycles
			sumPeep += w.PeepCycles
		}
		if sumRw != r.TotalRewrites || sumBase != r.TotalBaseCycles || sumPeep != r.TotalPeepCycles {
			return fmt.Errorf("compilebench: peep totals %d/%d/%d do not match workload sums %d/%d/%d",
				r.TotalRewrites, r.TotalBaseCycles, r.TotalPeepCycles, sumRw, sumBase, sumPeep)
		}
		if r.TotalRewrites < 1 {
			return fmt.Errorf("compilebench: peep pass enabled but no rule ever fired across the suite")
		}
		if !speedupConsistent(r.PeepCycleGain, r.TotalBaseCycles, r.TotalPeepCycles) {
			return fmt.Errorf("compilebench: peep cycle gain %.4f inconsistent with totals %d/%d",
				r.PeepCycleGain, r.TotalBaseCycles, r.TotalPeepCycles)
		}
	}
	if r.InterpEnabled {
		var sumSw, sumTh int64
		for _, w := range r.Workloads {
			sumSw += w.InterpSwitchNS
			sumTh += w.InterpThreadedNS
		}
		if sumSw != r.TotalInterpSwNS || sumTh != r.TotalInterpThNS {
			return fmt.Errorf("compilebench: interp totals %d/%d do not match workload sums %d/%d",
				r.TotalInterpSwNS, r.TotalInterpThNS, sumSw, sumTh)
		}
		if !speedupConsistent(r.InterpSpeedup, r.TotalInterpSwNS, r.TotalInterpThNS) {
			return fmt.Errorf("compilebench: interp speedup %.4f inconsistent with totals %d/%d",
				r.InterpSpeedup, r.TotalInterpSwNS, r.TotalInterpThNS)
		}
		// No fixed speedup floor here: wall-clock ratios vary with the host,
		// so the artifact only has to be internally consistent — CI gates the
		// minimum threaded speedup on its own measurement.
		if r.MeasuredPenalty <= 0 {
			return fmt.Errorf("compilebench: interp pass enabled but no measured penalty recorded")
		}
	}
	return nil
}

// speedupConsistent checks a recorded speedup against the walls it was
// derived from, with slack for the float64 round-trip through JSON.
func speedupConsistent(got float64, seq, par int64) bool {
	if par <= 0 {
		return got == 0
	}
	want := float64(seq) / float64(par)
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return diff <= 1e-9*want+1e-12
}

// ValidateCompileBenchJSON decodes and validates a BENCH_compile.json blob.
func ValidateCompileBenchJSON(data []byte) (*CompileBenchResult, error) {
	var r CompileBenchResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("compilebench: bad JSON: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
