package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/progen"
	"signext/internal/serve"
)

// The serve-mixed request mix. Popular programs are requested again and
// again (cache hits after priming), fresh programs exactly once (misses that
// compile and then write the cache), kernels without running them (hits that
// cost a large frontend and inlining but no execution).
const (
	popularPrograms = 64   // size of the popular set
	zipfExponent    = 0.8  // rank weight 1/r^s over the popular set
	freshShare      = 0.20 // share of requests for never-seen programs
	kernelShare     = 0.10 // share of requests for one of the 17 kernels
	profileShare    = 0.25 // share of progen programs requested with_profile
	saturateSeconds = 10   // length of the traced run's closed loop, which measures rps_max
)

// progenConfig sizes generated programs like the repository's serve load
// benchmark does.
var progenConfig = progen.Config{Stmts: 10, Funcs: 2}

// request is one prepared request and the answer it must get.
type request struct {
	kind string // "popular", "fresh" or "kernel"
	body []byte
	run  bool
	want string // reference output, for run requests

	// For fresh programs: the source, whose reference output is computed
	// only after the timed window (verifyFresh), so that drawing a fresh
	// request costs the load generator no more than generating its source.
	src string

	// For kernels: static_exts, eliminated and inserted must equal a direct
	// compile under the daemon's options.
	wantStatic *[3]int
}

// corpus is the generated input of one serve-mixed run.
type corpus struct {
	popular []*request
	kernels []*request
	weights []float64 // cumulative Zipf weights over popular

	// Fresh programs are generated on demand from one seeded stream, each
	// handed out exactly once.
	mu       sync.Mutex
	freshRng *rand.Rand
}

func (c *corpus) nextFresh() (*request, error) {
	c.mu.Lock()
	seed, withProfile := c.freshRng.Int63(), c.freshRng.Float64() < profileShare
	c.mu.Unlock()
	src := progen.MiniJava(seed, progenConfig)
	body, err := json.Marshal(&serve.CompileRequest{Source: src, Variant: "all", Run: true, WithProfile: withProfile})
	if err != nil {
		return nil, err
	}
	return &request{kind: "fresh", body: body, run: true, src: src}, nil
}

// serveOptions is the compile configuration the daemon applies to a request
// that names variant "all" and no profile; kernel expectations use it.
func serveOptions() jit.Options {
	return jit.Options{Variant: jit.All, Machine: ir.IA64, GeneralOpts: true, Checked: true, Parallelism: 1}
}

// reference returns a generated program's output in the Mode32
// interpreter, the oracle for the daemon's answers.
func reference(src string) (string, error) {
	cu, err := minijava.Compile(src)
	if err != nil {
		return "", err
	}
	ref, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32})
	if err != nil {
		return "", fmt.Errorf("reference run: %w", err)
	}
	return ref.Output, nil
}

// newPopular builds the request for one popular generated program, with
// its reference output.
func newPopular(seed int64, withProfile bool) (*request, error) {
	src := progen.MiniJava(seed, progenConfig)
	want, err := reference(src)
	if err != nil {
		return nil, fmt.Errorf("generated program %d: %w", seed, err)
	}
	body, err := json.Marshal(&serve.CompileRequest{Source: src, Variant: "all", Run: true, WithProfile: withProfile})
	if err != nil {
		return nil, err
	}
	return &request{kind: "popular", body: body, run: true, want: want}, nil
}

// newCorpus draws the popular set and the stream of fresh programs from
// seed. Program seeds come from the run's generator, so two runs share no
// program unless they share the seed.
func newCorpus(seed int64, ks []*kernel) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{freshRng: rand.New(rand.NewSource(rng.Int63()))}
	total := 0.0
	for i := 0; i < popularPrograms; i++ {
		r, err := newPopular(rng.Int63(), rng.Float64() < profileShare)
		if err != nil {
			return nil, err
		}
		c.popular = append(c.popular, r)
		total += 1 / math.Pow(float64(i+1), zipfExponent)
		c.weights = append(c.weights, total)
	}
	for i := range c.weights {
		c.weights[i] /= total
	}
	for _, k := range ks {
		res, err := jit.Compile(k.prog, serveOptions())
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		body, err := json.Marshal(&serve.CompileRequest{Source: k.src, Variant: "all"})
		if err != nil {
			return nil, err
		}
		c.kernels = append(c.kernels, &request{
			kind: "kernel", body: body,
			wantStatic: &[3]int{res.StaticExts, res.Stats.Eliminated, res.Stats.Inserted},
		})
	}
	return c, nil
}

// mix is a seeded stream of requests drawn from a corpus. Kinds come in
// shuffled blocks holding each kind in its exact share, so every stretch of
// the stream carries the same load; within a kind, kernels are uniform and
// popular programs follow the Zipf weights.
type mix struct {
	c     *corpus
	rng   *rand.Rand
	block []string
}

// mixBlock holds each kind in its share of 10 requests.
var mixBlock = func() []string {
	var b []string
	for kind, n := range map[string]float64{"kernel": kernelShare, "fresh": freshShare} {
		for i := 0; i < int(n*10+0.5); i++ {
			b = append(b, kind)
		}
	}
	for len(b) < 10 {
		b = append(b, "popular")
	}
	return b
}()

func (m *mix) next() (*request, error) {
	if len(m.block) == 0 {
		m.block = append([]string(nil), mixBlock...)
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	kind := m.block[0]
	m.block = m.block[1:]
	switch kind {
	case "kernel":
		return m.c.kernels[m.rng.Intn(len(m.c.kernels))], nil
	case "fresh":
		return m.c.nextFresh()
	}
	x := m.rng.Float64()
	for i, w := range m.c.weights {
		if x < w {
			return m.c.popular[i], nil
		}
	}
	return m.c.popular[len(m.c.popular)-1], nil
}

// schedule is the open loop's arrival plan: Poisson arrivals at rate per
// second for d, each with its request.
type arrival struct {
	due time.Duration // offset from the loop's start
	req *request
}

func newSchedule(m *mix, rate float64, d time.Duration) ([]arrival, error) {
	var out []arrival
	at := 0.0
	for {
		at += m.rng.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			return out, nil
		}
		r, err := m.next()
		if err != nil {
			return nil, err
		}
		out = append(out, arrival{due, r})
	}
}

// sample is one answered request.
type sample struct {
	req      *request
	due      time.Time
	sent     time.Time
	done     time.Time
	serverNS int64
	cpu      time.Duration // process CPU time over the exchange, in the cost loop
	output   string        // for fresh programs, checked by verifyFresh
	ok       bool
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// client is one load connection. It never retries: a refused or failed
// request is a failure, not something to hide behind a second attempt.
type client struct {
	url string
	tr  *http.Transport
	hc  *http.Client
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{url: url, tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends one request and returns the HTTP status and body.
func (c *client) post(body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// check decides whether one exchange answered the request correctly.
func check(r *request, status int, data []byte, err error) (*serve.CompileResponse, error) {
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, data)
	}
	var resp serve.CompileResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("undecodable answer: %w", err)
	}
	if r.run && resp.Trap != "" {
		return &resp, fmt.Errorf("trap: %s", resp.Trap)
	}
	if r.run && r.src == "" && resp.Output != r.want {
		return &resp, errors.New("output differs from the Mode32 reference")
	}
	if got := [3]int{resp.StaticExts, resp.Eliminated, resp.Inserted}; r.wantStatic != nil && got != *r.wantStatic {
		return &resp, fmt.Errorf("static counts %v, direct compile gives %v", got, *r.wantStatic)
	}
	return &resp, nil
}

// exchange sends r and checks the answer.
func (c *client) exchange(r *request, due time.Time) sample {
	s := sample{req: r, due: due, sent: time.Now()}
	status, data, err := c.post(r.body)
	s.done = time.Now()
	resp, err := check(r, status, data, err)
	if resp != nil {
		s.serverNS = resp.WallNS
		s.output = resp.Output
	}
	s.ok = err == nil
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s request failed: %v\n", r.kind, err)
	}
	return s
}

// loadWorkers is the number of load goroutines and connections: one per CPU.
func loadWorkers() int { return runtime.NumCPU() }

// openLoop sends every arrival at its due time from loadWorkers
// connections. A request whose connection is busy at its due time waits,
// and its latency counts from when it was due, so a stall shows in every
// request it delays.
func openLoop(url string, plan []arrival, t *tracer) []sample {
	out := make([]sample, len(plan))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(url)
			defer c.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				due := start.Add(plan[i].due)
				time.Sleep(time.Until(due))
				if t == nil {
					out[i] = c.exchange(plan[i].req, due)
					continue
				}
				id := t.begin("serve.request", i, -1)
				out[i] = c.exchange(plan[i].req, due)
				t.end(id)
				t.synthetic("serve.server", i, id, t.start(id), time.Duration(out[i].serverNS))
			}
		}()
	}
	wg.Wait()
	return out
}

// verifyFresh checks, after the timed window, the outputs of the fresh
// programs against their reference outputs, marking a wrong one failed.
func verifyFresh(ss []sample) {
	for i := range ss {
		s := &ss[i]
		if !s.ok || s.req.src == "" {
			continue
		}
		want, err := reference(s.req.src)
		if err != nil {
			s.ok = false
			fmt.Fprintf(os.Stderr, "perfbench: fresh program: %v\n", err)
		} else if s.output != want {
			s.ok = false
			fmt.Fprintf(os.Stderr, "perfbench: fresh request failed: output differs from the Mode32 reference\n")
		}
	}
}

// closedLoop keeps loadWorkers connections busy back to back for d and
// returns the answers.
func closedLoop(url string, m *mix, d time.Duration) ([]sample, error) {
	var mu sync.Mutex
	var out []sample
	var drawErr error
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(url)
			defer c.close()
			for time.Now().Before(deadline) {
				mu.Lock()
				r, err := m.next()
				if err != nil && drawErr == nil {
					drawErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
				s := c.exchange(r, time.Now())
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, drawErr
}

// sliceRate is the median, over the whole seconds of a closed loop that
// started at start and ran for d, of the answers completed in each second.
// A second slowed by something outside the daemon moves it little.
func sliceRate(ss []sample, start time.Time, d time.Duration) float64 {
	counts := make([]float64, int(d/time.Second))
	for _, s := range ss {
		if i := int(s.done.Sub(start) / time.Second); i < len(counts) {
			counts[i]++
		}
	}
	return median(counts)
}

// costLoop sends requests one at a time over a single connection for d and
// times each in the CPU time of the whole process: the client, the
// daemon's handler and the runtime's work on its behalf, garbage
// collection included. With one request in flight, that CPU time is the
// request's cost. Unlike its wall time, it leaves out the time the host ran
// other guests, which on a shared virtual machine moved wall-clock
// latencies by a factor of two between runs a minute apart. A calibration
// unit runs before each request, on the sending goroutine's locked thread.
func costLoop(url string, m *mix, d time.Duration, cal *calibrator) ([]sample, error) {
	defer lockThread()()
	c := newClient(url)
	defer c.close()
	var out []sample
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		r, err := m.next()
		if err != nil {
			return nil, err
		}
		cal.unit()
		c0 := processCPU()
		s := c.exchange(r, time.Now())
		s.cpu = processCPU() - c0
		out = append(out, s)
	}
	return out, nil
}

// daemon is one in-process serve.Server on a loopback port.
type daemon struct {
	srv  *serve.Server
	url  string
	done chan error
}

func startDaemon() (*daemon, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, url: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(l) }()
	return d, nil
}

// stop drains the daemon and waits for its accept loop to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Drain(ctx)
	<-d.done
}

// serveSetup is one set-up: corpus, daemon, primed cache, and the code
// quality of the daemon's answers for the kernels.
type serveSetup struct {
	corpus  *corpus
	daemon  *daemon
	quality codeQuality
}

func newServeSetup(seed int64, ks []*kernel) (*serveSetup, error) {
	c, err := newCorpus(seed, ks)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	s := &serveSetup{corpus: c, daemon: d}
	// Prime the cache with every popular program and kernel. The kernels
	// run once here, which gives the daemon's code-quality counts.
	if err := prime(d.url, c.popular); err != nil {
		d.stop()
		return nil, err
	}
	cl := newClient(d.url)
	defer cl.close()
	for i, k := range ks {
		body, err := json.Marshal(&serve.CompileRequest{Source: k.src, Variant: "all", Run: true})
		if err != nil {
			d.stop()
			return nil, err
		}
		r := &request{kind: "kernel", body: body, run: true, want: k.want, wantStatic: c.kernels[i].wantStatic}
		status, data, err := cl.post(r.body)
		resp, err := check(r, status, data, err)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("priming kernel %s: %w", k.name, err)
		}
		s.quality.add(codeQuality{staticExts: resp.StaticExts, dynExts: resp.DynamicExts, cycles: resp.Cycles})
	}
	return s, nil
}

// prime sends every request once over loadWorkers connections.
func prime(url string, rs []*request) error {
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(url)
			defer c.close()
			for i := int(next.Add(1)) - 1; i < len(rs); i = int(next.Add(1)) - 1 {
				if !c.exchange(rs[i], time.Now()).ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("%d priming requests failed", n)
	}
	return nil
}

// loadSetup is the full set-up of one serve-mixed run, kernels included.
func loadSetup(c runConfig) func() (*serveSetup, error) {
	return func() (*serveSetup, error) {
		ks, err := loadKernels()
		if err != nil {
			return nil, err
		}
		return newServeSetup(c.seed, ks)
	}
}

// failures counts the requests sent and those that did not get a correct
// answer: a wrong output, a non-200 status (refusals included) or a
// transport error.
func failures(runs ...[]sample) (attempted, failed int) {
	for _, ss := range runs {
		for _, s := range ss {
			attempted++
			if !s.ok {
				failed++
			}
		}
	}
	return attempted, failed
}

// behindSchedule reports whether the generator fell behind its schedule:
// some request was sent more than maxLate after it was due. A connection
// busy for a compile or two delays the next request by tens of
// milliseconds, which is queueing the latency figures should include; a
// backlog that keeps growing shows as a lag far beyond that.
func behindSchedule(ss []sample) bool {
	const maxLate = 250 * time.Millisecond
	for _, s := range ss {
		if s.sent.Sub(s.due) > maxLate {
			return true
		}
	}
	return false
}

func runServeMixed(c runConfig) (*outcome, error) {
	if c.trace {
		return traceServeMixed(c)
	}
	st, setupS, err := setups(loadSetup(c), func(s *serveSetup) { s.daemon.stop() })
	if err != nil {
		return nil, err
	}
	defer st.daemon.stop()

	c0 := readCounters()
	var cal calibrator
	cost, err := costLoop(st.daemon.url, &mix{c: st.corpus, rng: rand.New(rand.NewSource(c.seed ^ 0x5e7e))}, c.seconds, &cal)
	if err != nil {
		return nil, err
	}
	alloc := readCounters().since(c0).allocBytes

	verifyFresh(cost)
	oc := &outcome{metrics: map[string]float64{}}
	oc.attempted, oc.failed = failures(cost)
	var all, cold []float64
	var cpu time.Duration
	for _, s := range cost {
		all = append(all, ms(s.cpu))
		cpu += s.cpu
		if s.req.kind == "fresh" {
			cold = append(cold, ms(s.cpu))
		}
	}
	m := oc.metrics
	if err := quantiles(m, "op_ms", all, 50, 90); err != nil {
		return nil, err
	}
	if err := quantiles(m, "cold_ms", cold, 50); err != nil {
		return nil, err
	}
	m["setup_s"] = setupS
	m["ok_ratio"] = 1 - ratio(float64(oc.failed), float64(oc.attempted))
	m["ops_per_s"] = float64(len(cost)) / cpu.Seconds()
	m["alloc_kb_per_op"] = float64(alloc) / float64(len(cost)) / 1024
	m["static_exts"] = float64(st.quality.staticExts)
	m["dyn_exts"] = float64(st.quality.dynExts)
	m["run_mcycles"] = float64(st.quality.cycles) / 1e6
	oc.speed = cal.speed()
	fmt.Printf("serve-mixed: cost loop %d requests, %.1f answers per CPU-second\n", len(cost), m["ops_per_s"])
	return oc, nil
}

// traceServeMixed runs the open loop untraced, then traced, each long
// enough for a p99 with ten samples beyond it, then the closed loop at
// saturation. The untraced open loop gives the wall-clock request latency
// a user sees at the stated rate (serve.req_ms.*), and the closed loop
// rps_max; both are per-layer figures because on a shared virtual machine
// they move with the host's load far more than any bound could allow. The
// daemon is opaque to the benchmark: its compile layers report 0 here, and
// its own wall time comes from the answer.
func traceServeMixed(c runConfig) (*outcome, error) {
	ks, err := loadKernels()
	if err != nil {
		return nil, err
	}
	window := max(c.seconds, time.Duration(1100/c.rate*float64(time.Second)))
	st, err := newServeSetup(c.seed, ks)
	if err != nil {
		return nil, err
	}
	defer st.daemon.stop()
	mx := &mix{c: st.corpus, rng: rand.New(rand.NewSource(c.seed ^ 0x5e7e))}

	plan, err := newSchedule(mx, c.rate, window)
	if err != nil {
		return nil, err
	}
	plain := openLoop(st.daemon.url, plan, nil)

	plan, err = newSchedule(mx, c.rate, window)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	s0, c0 := st.daemon.srv.Stats(), readCounters()
	traced := openLoop(st.daemon.url, plan, t)
	s1, gc := st.daemon.srv.Stats(), readCounters().since(c0)

	satStart := time.Now()
	sat, err := closedLoop(st.daemon.url, &mix{c: st.corpus, rng: rand.New(rand.NewSource(c.seed ^ 0xc105ed))}, saturateSeconds*time.Second)
	if err != nil {
		return nil, err
	}

	oc := &outcome{metrics: map[string]float64{}, spans: t}
	verifyFresh(plain)
	verifyFresh(traced)
	verifyFresh(sat)
	oc.attempted, oc.failed = failures(plain, traced, sat)
	var server, transport, hit, miss, late, tracedLat, plainLat []float64
	for _, s := range plain {
		plainLat = append(plainLat, ms(s.latency()))
	}
	for _, s := range traced {
		lat := ms(s.latency())
		tracedLat = append(tracedLat, lat)
		server = append(server, float64(s.serverNS)/1e6)
		transport = append(transport, ms(s.done.Sub(s.sent))-float64(s.serverNS)/1e6)
		late = append(late, ms(s.sent.Sub(s.due)))
		if s.req.kind == "fresh" {
			miss = append(miss, lat)
		} else {
			hit = append(hit, lat)
		}
	}
	m := oc.metrics
	zeroLayers(m)
	if err := quantiles(m, "serve.req_ms", plainLat, 50, 99); err != nil {
		return nil, err
	}
	m["serve.rps_max"] = sliceRate(sat, satStart, saturateSeconds*time.Second)
	if err := quantiles(m, "serve.server_ms", server, 50, 99); err != nil {
		return nil, err
	}
	if err := quantiles(m, "serve.late_ms", late, 99); err != nil {
		return nil, err
	}
	m["serve.transport_ms.p50"] = median(transport)
	m["serve.hit_ms.p50"] = median(hit)
	m["serve.miss_ms.p50"] = median(miss)
	n := float64(len(traced))
	m["codecache.hits"] = float64(s1.Cache.Hits-s0.Cache.Hits) / n
	m["codecache.misses"] = float64(s1.Cache.Misses-s0.Cache.Misses) / n
	m["codecache.hit_rate"] = ratio(float64(s1.Cache.Hits-s0.Cache.Hits), float64(s1.Cache.Hits-s0.Cache.Hits+s1.Cache.Misses-s0.Cache.Misses))
	m["codecache.evictions"] = float64(s1.Cache.Evictions-s0.Cache.Evictions) / n
	m["serve.rejected"] = float64(s1.Rejected - s0.Rejected)
	m["serve.degraded"] = float64(s1.Degraded - s0.Degraded)
	m["go.gc_cycles"] = float64(gc.gcCycles) / n
	m["trace.overhead_ms"] = median(tracedLat) - median(plainLat)
	m["trace.spans"] = float64(t.count())
	if behindSchedule(traced) || behindSchedule(plain) {
		fmt.Printf("serve-mixed: GENERATOR BEHIND SCHEDULE: latencies include generator lag\n")
	}
	return oc, nil
}
