package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"signext/internal/serve"
)

// answer returns a handler that always replies with status and resp.
func answer(status int, resp *serve.CompileResponse) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(resp)
	}
}

// TestCheckerCountsFailures drives the load client against stub daemons: a
// correct answer passes, and a wrong output, a non-200 answer, a refusal
// and a transport error each add one failure.
func TestCheckerCountsFailures(t *testing.T) {
	run := &request{kind: "popular", body: []byte(`{}`), run: true, want: "42\n"}
	kern := &request{kind: "kernel", body: []byte(`{}`), wantStatic: &[3]int{3, 9, 1}}

	closed := httptest.NewServer(answer(http.StatusOK, &serve.CompileResponse{}))
	closedURL := closed.URL
	closed.Close()

	cases := []struct {
		name string
		req  *request
		url  func() string
		ok   bool
	}{
		{"correct output", run, serveStub(t, http.StatusOK, &serve.CompileResponse{Output: "42\n"}), true},
		{"correct kernel counts", kern, serveStub(t, http.StatusOK, &serve.CompileResponse{StaticExts: 3, Eliminated: 9, Inserted: 1}), true},
		{"wrong output", run, serveStub(t, http.StatusOK, &serve.CompileResponse{Output: "41\n"}), false},
		{"trap", run, serveStub(t, http.StatusOK, &serve.CompileResponse{Output: "42\n", Trap: "interp: division by zero"}), false},
		{"wrong kernel counts", kern, serveStub(t, http.StatusOK, &serve.CompileResponse{StaticExts: 4, Eliminated: 9, Inserted: 1}), false},
		{"non-200", run, serveStub(t, http.StatusInternalServerError, &serve.CompileResponse{Error: "boom"}), false},
		{"refused", run, serveStub(t, http.StatusTooManyRequests, &serve.CompileResponse{Error: "queue full"}), false},
		{"transport error", run, func() string { return closedURL }, false},
	}
	var all []sample
	wantFailed := 0
	for _, tc := range cases {
		c := newClient(tc.url())
		s := c.exchange(tc.req, time.Now())
		c.close()
		if s.ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, s.ok, tc.ok)
		}
		all = append(all, s)
		if !tc.ok {
			wantFailed++
		}
		attempted, failed := failures(all)
		if attempted != len(all) || failed != wantFailed {
			t.Errorf("after %s: failures = %d of %d, want %d of %d", tc.name, failed, attempted, wantFailed, len(all))
		}
	}
}

// TestFreshOutputCheckedAfterWindow gives a fresh program's request a
// correct and a wrong answer: the wrong one fails once verifyFresh has
// computed the reference.
func TestFreshOutputCheckedAfterWindow(t *testing.T) {
	c := &corpus{freshRng: rand.New(rand.NewSource(3))}
	r, err := c.nextFresh()
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference(r.src)
	if err != nil {
		t.Fatal(err)
	}
	var ss []sample
	for _, out := range []string{want, want + "0\n"} {
		cl := newClient(serveStub(t, http.StatusOK, &serve.CompileResponse{Output: out})())
		ss = append(ss, cl.exchange(r, time.Now()))
		cl.close()
	}
	if !ss[0].ok || !ss[1].ok {
		t.Fatal("a fresh answer failed before its reference was known")
	}
	verifyFresh(ss)
	if attempted, failed := failures(ss); attempted != 2 || failed != 1 || !ss[0].ok {
		t.Errorf("after verifyFresh: %d of %d failed (first ok %v), want only the wrong output", failed, attempted, ss[0].ok)
	}
}

// serveStub starts a stub daemon for the duration of the test.
func serveStub(t *testing.T, status int, resp *serve.CompileResponse) func() string {
	srv := httptest.NewServer(answer(status, resp))
	t.Cleanup(srv.Close)
	return func() string { return srv.URL }
}

// planOf renders a schedule as comparable data.
type planEntry struct {
	due  time.Duration
	kind string
	body string
}

func planOf(t *testing.T, seed int64) ([]string, []planEntry) {
	t.Helper()
	ks, err := loadKernels()
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCorpus(seed, ks[:2])
	if err != nil {
		t.Fatal(err)
	}
	var popular []string
	for _, r := range c.popular {
		popular = append(popular, string(r.body))
	}
	arr, err := newSchedule(&mix{c: c, rng: rand.New(rand.NewSource(seed))}, 100, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var plan []planEntry
	for _, a := range arr {
		plan = append(plan, planEntry{a.due, a.req.kind, string(a.req.body)})
	}
	return popular, plan
}

func TestSeedFixesCorpusAndSchedule(t *testing.T) {
	pop1, plan1 := planOf(t, 7)
	pop1b, plan1b := planOf(t, 7)
	pop2, plan2 := planOf(t, 8)
	if !reflect.DeepEqual(pop1, pop1b) || !reflect.DeepEqual(plan1, plan1b) {
		t.Fatal("the same seed gave a different corpus or schedule")
	}
	if reflect.DeepEqual(pop1, pop2) {
		t.Error("seeds 7 and 8 gave the same popular set")
	}
	if reflect.DeepEqual(plan1, plan2) {
		t.Error("seeds 7 and 8 gave the same arrival schedule")
	}
	kinds := map[string]int{}
	for _, p := range plan1 {
		kinds[p.kind]++
	}
	if kinds["fresh"] == 0 || kinds["kernel"] == 0 || kinds["popular"] == 0 {
		t.Errorf("schedule lacks a request kind: %v", kinds)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "compile-suite", "--trace", "2"},
		{"--workload", "compile-suite", "--seconds", "0"},
		{"--workload", "serve-mixed"},
		{"--workload", "compile-suite", "extra"},
		{"--bogus"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed a result: %q", args, out.String())
		}
	}
}

func TestMixBlockShares(t *testing.T) {
	got := map[string]int{}
	for _, k := range mixBlock {
		got[k]++
	}
	want := map[string]int{"kernel": 1, "fresh": 2, "popular": 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mix block = %v, want %v", got, want)
	}
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, err := quantile(xs, 50); err != nil || v != 50 {
		t.Errorf("p50 = %v, %v; want 50", v, err)
	}
	if v, err := quantile(xs, 90); err != nil || v != 90 {
		t.Errorf("p90 = %v, %v; want 90", v, err)
	}
	if _, err := quantile(xs, 99); err == nil {
		t.Error("p99 of 100 samples was reported with 1 sample beyond it")
	}
}

// TestScaleToReference checks the direction of the host-speed correction:
// on a host at half the reference speed, times halve and rates double,
// and counts stay as measured.
func TestScaleToReference(t *testing.T) {
	c := &calibrator{units: []time.Duration{2 * calibrationRef, calibrationRef, 3 * calibrationRef}}
	speed := c.speed()
	if speed != 0.5 {
		t.Fatalf("speed = %v, want 0.5", speed)
	}
	m := map[string]float64{"op_ms.p50": 10, "setup_s": 4, "ops_per_s": 100, "dyn_exts": 7, "ok_ratio": 1}
	scaleToReference(m, speed)
	want := map[string]float64{"op_ms.p50": 5, "setup_s": 2, "ops_per_s": 200, "dyn_exts": 7, "ok_ratio": 1}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("scaled = %v, want %v", m, want)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "parent", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Parent: 0, StartNS: 10, EndNS: 40},
		{Name: "b", Parent: 0, StartNS: 30, EndNS: 50},  // overlaps a
		{Name: "c", Parent: 0, StartNS: 90, EndNS: 120}, // runs past the parent
	}}
	if got := tr.selfTimes()["parent"]; got != 100-40-10 {
		t.Errorf("parent self = %d, want 50", got)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables and the workload
// list in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloadRuns {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, want)
	}
}
