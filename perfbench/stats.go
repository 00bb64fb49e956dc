package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must leave above
// it; a rarer tail is a guess, not a measurement.
const minBeyond = 10

// quantile returns the nearest-rank pct-th percentile of xs, or an error
// when fewer than minBeyond samples lie beyond it.
func quantile(xs []float64, pct int) (float64, error) {
	n := len(xs)
	rank := max((pct*n+99)/100, 1)
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples leaves %d beyond it, need %d", pct, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// quantiles fills m[prefix+".pNN"] for each percentile NN, failing on the
// first one the sample cannot support.
func quantiles(m map[string]float64, prefix string, xs []float64, pcts ...int) error {
	for _, pct := range pcts {
		v, err := quantile(xs, pct)
		if err != nil {
			return fmt.Errorf("%s: %w", prefix, err)
		}
		m[fmt.Sprintf("%s.p%d", prefix, pct)] = v
	}
	return nil
}

// median returns the middle sample (the lower one for an even count); it
// needs no tail, so it serves the small per-run aggregates such as set-up.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeCounters reads the process-wide allocation and GC counters without
// stopping the world. Only collections the runtime started itself count;
// the benchmark's own runtime.GC calls between measurements do not.
type runtimeCounters struct{ allocBytes, gcCycles uint64 }

var counterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/automatic:gc-cycles"},
}

func readCounters() runtimeCounters {
	s := make([]metrics.Sample, len(counterSamples))
	copy(s, counterSamples)
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

func (c runtimeCounters) since(prev runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocBytes - prev.allocBytes, c.gcCycles - prev.gcCycles}
}

// setups runs set-up from scratch at least setupRepeats times, and more
// until the set-ups have used setupCPU, and returns the last result with
// the median set-up time. Times are CPU seconds of the whole process: a
// host that steals the virtual CPUs does not inflate them, and set-up work
// spread over goroutines all counts. The earlier results are released
// before the next set-up so each one pays for its own memory.
func setups[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var cpus []float64
	for total := 0.0; len(cpus) < setupRepeats || total < setupCPU.Seconds(); {
		if len(cpus) > 0 {
			release(last)
		}
		runtime.GC()
		c0 := processCPU()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		cpus = append(cpus, (processCPU() - c0).Seconds())
		total += cpus[len(cpus)-1]
		last = v
	}
	return last, median(cpus), nil
}

// A cheap set-up is repeated more often, so that its median is not one
// noisy sample of a fraction of a second.
const (
	setupRepeats = 5
	setupCPU     = 3 * time.Second
)
