// Command perfbench is the repository benchmark. It runs one of three
// workloads for a fixed time and prints, as the last line of its standard
// output, one JSON object with the workload's metrics:
//
//	bash perfbench/run.sh --workload compile-suite --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones a user of the compiler
// sees; with --trace 1 the run records spans around the benchmark's own calls
// into each package and reports per-layer metrics instead. README.md in this
// directory defines every metric and says which end-to-end metric each layer
// metric should move, on which workload.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric names one reported quantity and its unit.
type metric struct{ name, unit string }

// endToEnd lists the metrics every workload reports with --trace 0. Each
// workload defines its own "operation" (README.md): one program compiled,
// one request answered, one steady-state invocation.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"op_ms.p50", "ms"},
	{"op_ms.p90", "ms"},
	{"cold_ms.p50", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_kb_per_op", "KiB"},
	{"static_exts", "count"},
	{"dyn_exts", "count"},
	{"run_mcycles", "Mcycle"},
}

// perLayer lists the metrics every workload reports with --trace 1. A layer
// the workload does not call from timed work reports 0.
var perLayer = []metric{
	{"minijava.ms", "ms"},
	{"minijava.ir_instrs", "count"},
	{"opt.inline.ms", "ms"},
	{"opt.ms", "ms"},
	{"opt.alloc_mb", "MiB"},
	{"opt.folded", "count"},
	{"opt.copies", "count"},
	{"opt.cse", "count"},
	{"opt.dead", "count"},
	{"opt.hoisted", "count"},
	{"extelim.convert.ms", "ms"},
	{"extelim.ms", "ms"},
	{"extelim.chain.ms", "ms"},
	{"extelim.inserted", "count"},
	{"extelim.eliminated", "count"},
	{"extelim.remaining", "count"},
	{"extelim.elim_ratio", "ratio"},
	{"chains.build_ms", "ms"},
	{"chains.build_alloc_kb", "KiB"},
	{"vrange.ms", "ms"},
	{"guard.verify_ms", "ms"},
	{"jit.ms", "ms"},
	{"jit.self_ms", "ms"},
	{"jit.fallbacks", "count"},
	{"jit.tel.inline.ms", "ms"},
	{"jit.tel.convert.ms", "ms"},
	{"jit.tel.opt.ms", "ms"},
	{"jit.tel.extelim.ms", "ms"},
	{"jit.tel.chain.ms", "ms"},
	{"replay.identical", "count"},
	{"target.code_instrs", "count"},
	{"interp.ms", "ms"},
	{"interp.msteps", "Mstep"},
	{"interp.ns_per_step", "ns"},
	{"tiered.promote_ms", "ms"},
	{"tiered.tier_ups", "count"},
	{"tiered.invokes_to_steady", "count"},
	{"codecache.hits", "count"},
	{"codecache.misses", "count"},
	{"codecache.hit_rate", "ratio"},
	{"codecache.evictions", "count"},
	{"serve.req_ms.p50", "ms"},
	{"serve.req_ms.p99", "ms"},
	{"serve.rps_max", "1/s"},
	{"serve.server_ms.p50", "ms"},
	{"serve.server_ms.p99", "ms"},
	{"serve.transport_ms.p50", "ms"},
	{"serve.hit_ms.p50", "ms"},
	{"serve.miss_ms.p50", "ms"},
	{"serve.rejected", "count"},
	{"serve.degraded", "count"},
	{"serve.late_ms.p99", "ms"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	rate    float64 // serve-mixed open-loop arrival rate, requests per second
}

// outcome is one workload run: the tally of checked operations plus the
// metrics of the requested kind.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
	spans     *tracer // nil unless traced

	// speed is the untraced run's host speed relative to the reference
	// machine (calib.go); report scales the time metrics by it.
	speed float64
}

// workloadRuns maps each --workload name to the function that runs it.
var workloadRuns = map[string]func(runConfig) (*outcome, error){
	"compile-suite": runCompileSuite,
	"serve-mixed":   runServeMixed,
	"tiered-steady": runTieredSteady,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "compile-suite, serve-mixed or tiered-steady")
	seed := fl.Int64("seed", 1, "seed for every generated input")
	seconds := fl.Float64("seconds", 30, "measured seconds")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	rate := fl.Float64("rate", 0, "serve-mixed open-loop arrival rate (requests/s)")
	repo := fl.String("repo", ".", "repository checkout the benchmark was built from")
	out := fl.String("out", ".bench_build/perfbench", "directory for span files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloadRuns[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fl.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (compile-suite|serve-mixed|tiered-steady), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if *name == "serve-mixed" && *rate <= 0 {
		fmt.Fprintf(stderr, "perfbench: serve-mixed needs --rate > 0\n")
		return 2
	}

	env := environment(*repo, *seed)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		rate:    *rate,
	}
	oc, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	want := endToEnd
	if cfg.trace {
		want = perLayer
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := oc.spans.write(path, env); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	if !cfg.trace {
		fmt.Fprintf(stdout, "host speed %.4f of the reference (calibration median %.1f µs); times below are scaled by it\n",
			oc.speed, float64(calibrationRef.Microseconds())/oc.speed)
		scaleToReference(oc.metrics, oc.speed)
	}
	line, err := report(oc, want)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printTable(stdout, oc, want)
	fmt.Fprintln(stdout, line)
	if oc.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed or were wrong\n", *name, oc.failed, oc.attempted)
		return 1
	}
	return 0
}

// report renders the result line. Every wanted metric must be present and
// finite; a workload that cannot measure one has a defect, not a gap.
func report(oc *outcome, want []metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(want))
	for _, m := range want {
		v, ok := oc.metrics[m.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is not finite", m.name)
		}
		ms[m.name] = value{v, m.unit}
	}
	if oc.attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{oc.failed == 0, oc.attempted, oc.failed, ms})
	return string(b), err
}

func printTable(w io.Writer, oc *outcome, want []metric) {
	fmt.Fprintf(w, "attempted %d  failed %d  fail_ratio %.6f\n",
		oc.attempted, oc.failed, float64(oc.failed)/float64(max(oc.attempted, 1)))
	for _, m := range want {
		fmt.Fprintf(w, "  %-26s %14.4f %s\n", m.name, oc.metrics[m.name], m.unit)
	}
}

// env is recorded with every result: a number without its CPU count and
// build is not comparable with another.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
	Seed       int64  `json:"seed"`
	Time       string `json:"time"`
}

func environment(root string, seed int64) env {
	e := env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		SourceSHA:  sourceDigest(root),
		Seed:       seed,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// sourceDigest hashes every Go source and module file under root, so a
// result identifies the code it measured even in a checkout without git
// metadata. Build output directories are skipped.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unreadable"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
