package main

import (
	"sort"
	"time"
)

// Host speed calibration.
//
// On a shared virtual machine the speed of a CPU second itself drifts: other
// guests contend for caches, memory bandwidth and sibling hyperthreads. On
// the 2-CPU VM that set the benchmark up, the thread CPU time of the same
// compiles moved by 40-55% between runs minutes apart. A thread CPU clock
// cannot see that; a fixed unit of work timed on the same thread,
// interleaved with the measured operations, can. Each untraced run times one
// calibration unit before every operation and reports its times scaled to a
// reference speed:
//
//	reported = measured × calibrationRef / median(calibration unit times)
//
// The unit is code of the benchmark's own, so a change to the repository
// cannot move it, and it mixes the kinds of work the workloads do: building
// and walking pointer structures, hashing, sorting, and a switch-dispatch
// loop like an interpreter's.

// calibrationRef is the median CPU time of one calibration unit on the
// machine that set the benchmark up, in a quiet stretch. It fixes the scale
// of every reported time and never changes with the code under test.
const calibrationRef = 250 * time.Microsecond

// calibrator records calibration units. It is used from one goroutine.
type calibrator struct{ units []time.Duration }

// calSink keeps the calibration's results live so the compiler cannot drop
// the work.
var calSink int

// unit runs one calibration unit and records its CPU time on the calling
// thread, which the caller keeps locked.
func (c *calibrator) unit() {
	t0 := threadCPU()
	calSink += calibrationWork()
	c.units = append(c.units, threadCPU()-t0)
}

// speed returns the run's speed relative to the reference machine: above 1
// when calibration units ran faster than calibrationRef.
func (c *calibrator) speed() float64 {
	xs := make([]float64, len(c.units))
	for i, d := range c.units {
		xs[i] = float64(d)
	}
	return float64(calibrationRef) / median(xs)
}

// calNode is a binary search tree node of the calibration unit.
type calNode struct {
	key         int
	left, right *calNode
}

// calibrationWork is one fixed, deterministic unit of work.
func calibrationWork() int {
	// Pointer structures: insert pseudo-random keys into a search tree and
	// walk it.
	x := uint32(2463534242)
	next := func() int {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return int(x % 4096)
	}
	var root *calNode
	for i := 0; i < 600; i++ {
		k := next()
		p := &root
		for *p != nil {
			if k < (*p).key {
				p = &(*p).left
			} else {
				p = &(*p).right
			}
		}
		*p = &calNode{key: k}
	}
	var walk func(n *calNode) int
	walk = func(n *calNode) int {
		if n == nil {
			return 0
		}
		return n.key + walk(n.left) + walk(n.right)
	}
	sum := walk(root)

	// Hashing and sorting.
	seen := make(map[int]int)
	keys := make([]int, 0, 600)
	for i := 0; i < 600; i++ {
		k := next()
		if seen[k] == 0 {
			keys = append(keys, k)
		}
		seen[k]++
	}
	sort.Ints(keys)
	sum += keys[len(keys)/2] + len(seen)

	// An interpreter's dispatch loop over a small register program.
	type op struct{ code, a, b int }
	prog := []op{{0, 0, 1}, {1, 1, 0}, {2, 2, 1}, {3, 0, 2}, {1, 3, 0}, {4, 0, 0}}
	var regs [4]int
	regs[0], regs[1] = 7, 3
	for step, pc := 0, 0; step < 12000; step++ {
		in := prog[pc]
		switch in.code {
		case 0:
			regs[in.a] += regs[in.b]
		case 1:
			regs[in.a] ^= regs[in.b] << 1
		case 2:
			regs[in.a] = regs[in.b]&0xffff + 1
		case 3:
			regs[in.a] -= regs[in.b] >> 2
		case 4:
			if regs[0]&1 == 0 {
				pc = -1
			}
		}
		pc = (pc + 1) % len(prog)
	}
	return sum + regs[0] + regs[3]
}

// scaleToReference converts an untraced run's times and rates from this
// host's speed to the reference machine's. Counts and ratios are left
// alone.
func scaleToReference(m map[string]float64, speed float64) {
	for _, e := range endToEnd {
		v, ok := m[e.name]
		switch {
		case !ok:
		case e.unit == "ms" || e.unit == "s":
			m[e.name] = v * speed
		case e.unit == "1/s":
			m[e.name] = v / speed
		}
	}
}
