package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"overlapsim/internal/core"
	"overlapsim/internal/sweep"
)

func ms2d(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func sp(name string, start, end float64, parent int) span {
	return span{Name: name, Start: ms2d(start), End: ms2d(end), Parent: parent}
}

// Self time is the span minus the union of its children, clipped to it:
// overlapping children (the two modes of one point) count once, and a
// child running past its parent counts only inside it.
func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		sp("op", 0, 10, -1),
		sp("mode", 1, 3, 0),
		sp("mode", 2, 5, 0),    // overlaps the first child: [1,5] covered once
		sp("late", 8, 12, 0),   // only [8,10] lies inside the parent
		sp("inner", 2, 2.5, 2), // grandchild: counts against its parent, not the root
	}
	self := selfTimes(spans)
	want := []float64{4, 2, 2.5, 4, 0.5}
	for i, w := range want {
		if got := ms(self[i]); math.Abs(got-w) > 1e-9 {
			t.Errorf("self(%s #%d) = %v ms, want %v", spans[i].Name, i, got, w)
		}
	}
	layers := byName(spans, self)
	if l := layers["mode"]; l.Calls != 2 || ms(l.Total) != 5 || ms(l.Self) != 4.5 {
		t.Errorf("mode layer = %+v", *l)
	}
	if got := covered(spans[0], nil); got != 0 {
		t.Errorf("no children cover %v", got)
	}
}

// A tail percentile needs ten samples beyond it; the median needs one.
func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to check it sorts
		}
		return xs
	}
	cases := []struct {
		n      int
		q      float64
		want   float64
		refuse bool
	}{
		{199, 0.95, 0, true}, // rank 190, 9 beyond
		{200, 0.95, 190, false},
		{999, 0.99, 0, true},
		{1000, 0.99, 990, false},
		{3, 0.5, 2, false},
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if c.refuse != (err != nil) {
			t.Errorf("p%g of %d: err = %v, want refusal %v", c.q*100, c.n, err, c.refuse)
			continue
		}
		if !c.refuse && got != c.want {
			t.Errorf("p%g of %d = %v, want %v", c.q*100, c.n, got, c.want)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("median of nothing was accepted")
	}
}

func smallConfig(t *testing.T) (core.Config, string) {
	t.Helper()
	cfg, err := sweep.Experiment{GPU: "H100", GPUCount: 4, Model: "GPT-3 XL", Batch: 8}.Config()
	if err != nil {
		t.Fatal(err)
	}
	key, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, key
}

// The reference factor is probeRefMs over the run's median probe sample:
// a host half as fast doubles the samples and halves the factor, so host
// time × factor stays put, and one outlying sample does not move it.
func TestReferenceFactor(t *testing.T) {
	h := newHostSpeed(2)
	h.samples = []float64{10, 11, 9, 50, 10}
	if got := h.factor(); got != probeRefMs/10 {
		t.Fatalf("factor %v, want %v", got, probeRefMs/10)
	}
	slow := newHostSpeed(2)
	for _, x := range h.samples {
		slow.samples = append(slow.samples, 2*x)
	}
	if a, b := 100*h.factor(), 200*slow.factor(); math.Abs(a-b) > 1e-12 {
		t.Fatalf("100 ms on the fast host reads %v, 200 ms on the slow one %v", a, b)
	}
	h.sample()
	if n := len(h.samples); n != 6 || !(h.samples[5] > 0) {
		t.Fatalf("sample recorded %v", h.samples)
	}
}

// The output check must catch a result that differs in one bit of one
// simulated number, both per op and in the digest.
func TestDigestCatchesPerturbedResult(t *testing.T) {
	cfg, key := smallConfig(t)
	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := resultHash(res)
	if err != nil {
		t.Fatal(err)
	}
	want := &expectation{Points: map[string]string{key: h}}
	want.Digest = digest(want.Points)

	if o := newOutputs(want); !o.check(key, h) || !o.checkDigest() {
		t.Fatalf("unperturbed result failed its check: %v", o.bad)
	}

	res.Overlapped.Mean.E2E = math.Nextafter(res.Overlapped.Mean.E2E, math.Inf(1))
	h2, err := resultHash(res)
	if err != nil {
		t.Fatal(err)
	}
	o := newOutputs(want)
	if o.check(key, h2) {
		t.Error("perturbed result passed the per-op check")
	}
	if o.checkDigest() {
		t.Error("perturbed result passed the digest check")
	}
	if o := newOutputs(want); o.checkAggregate("paper_gap_pp", 8.2) {
		t.Error("an aggregate with no recorded value passed")
	}
}

// The traced executor must produce exactly what core.Run produces.
func TestTracedPointMatchesCoreRun(t *testing.T) {
	cfg, key := smallConfig(t)
	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := resultHash(res)
	rec := newRecorder()
	pt := tracedPoint(context.Background(), rec, 7, cfg, sweep.NewMemCache())
	if pt.Res == nil || pt.Key != key {
		t.Fatalf("traced point: key %s, err %v", pt.Key, pt.Err)
	}
	if got, _ := resultHash(pt.Res); got != want {
		t.Errorf("traced result %s, core.Run %s", short(got), short(want))
	}
	names := map[string]int{}
	for _, s := range rec.snapshot() {
		names[s.Name]++
		if s.Op != 7 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
	for n, c := range map[string]int{"op": 1, "core.fingerprint": 1, "sweep.cache_get": 1, "sweep.sim": 1,
		"strategy.build": 2, "exec.run": 2, "exec.measure": 2, "gpu.power_stats": 2, "sweep.cache_put": 1} {
		if names[n] != c {
			t.Errorf("%d %s spans, want %d", names[n], n, c)
		}
	}
}

func schedule(seed uint64, n int) []arrival {
	g := newGenerator(seed)
	out := make([]arrival, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b, c := schedule(1, 500), schedule(1, 500), schedule(2, 500)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave different schedules")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds gave the same schedule")
	}
}

// The mix must match the stated shares, within a tolerance, on any seed.
func TestGeneratorMixShares(t *testing.T) {
	const n, tol = 20000, 0.01
	for _, seed := range []uint64{1, 2, 3} {
		var count [numKinds]int
		bigHot, hot := 0, 0
		sched := schedule(seed, n)
		for _, a := range sched {
			count[a.Kind]++
			if a.Kind == kindHot || a.Kind == kindPeer {
				hot++
				if a.Exp.Nodes > 1 {
					bigHot++
				}
			}
		}
		for k := range count {
			if got := float64(count[k]) / n; math.Abs(got-mixShares[k]) > tol {
				t.Errorf("seed %d: %s share %.4f, want %.2f±%.2f", seed, kindNames[k], got, mixShares[k], tol)
			}
		}
		if got := float64(bigHot) / float64(hot); math.Abs(got-0.037) > 0.01 {
			t.Errorf("seed %d: 64-node share of hot traffic %.3f, want about 0.037", seed, got)
		}
		if rate := float64(n) / sched[n-1].Due.Seconds(); math.Abs(rate/serveRate-1) > 0.03 {
			t.Errorf("seed %d: arrival rate %.1f/s, want %d/s", seed, rate, serveRate)
		}
		seen := map[sweep.Experiment]bool{}
		for _, a := range sched {
			if a.Kind == kindCold || a.Kind == kindPair {
				if seen[a.Exp] {
					t.Fatalf("seed %d: first-time config %+v drawn twice", seed, a.Exp)
				}
				seen[a.Exp] = true
			}
		}
	}
}

// Every config the generator can draw must resolve and simulate without
// error, so error_ratio starts at zero.
func TestGeneratedConfigsResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the hot set")
	}
	var run []sweep.Experiment
	run = append(run, hotSet()...)
	for i := 0; i < coldSpaceSize(); i++ {
		e := coldExperiment(i)
		if _, err := e.Config(); err != nil {
			t.Fatalf("cold config %d (%+v): %v", i, e, err)
		}
		// Power caps do not change whether a config fits; simulate the
		// lowest and highest cap of each family.
		if c := i % coldCaps; c == 0 || c == coldCaps-1 {
			run = append(run, e)
		}
	}
	for _, e := range run {
		cfg, err := e.Config()
		if err != nil {
			t.Fatalf("%+v: %v", e, err)
		}
		if _, err := core.Run(context.Background(), cfg); err != nil {
			t.Errorf("%+v: %v", e, err)
		}
	}
}

// BENCHMARK.json must list exactly the workloads the program runs and the
// metrics its JSON line carries.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(bench.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end %v, program emits %v", got, endToEnd)
	}
	if got := names(bench.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer %v, program emits %v", got, perLayer)
	}
	got := names(bench.Workloads)
	if len(got) != len(workloads) {
		t.Errorf("workloads %v", got)
	}
	for _, w := range got {
		if workloads[w] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w)
		}
	}
	exps, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range got {
		if e := exps[w]; e == nil || e.Digest != digest(e.Points) {
			t.Errorf("expected.json: no consistent record for %s", w)
		}
	}
}

// A short serve run end to end, paired as a traced run sends it: an
// untraced and a traced pair of replicas, client workers, cache and
// handler wrappers and the recorder all run at once, so the race detector
// sees them. The windows must tile the schedule without splitting a
// duplicate pair, and every response must pass its output check.
func TestServePhase(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the hot set")
	}
	ctx := context.Background()
	o := options{seed: 3, seconds: 2, procs: 2, setups: 1}
	c := newClient(o.procs)
	defer c.close()
	plain, err := setupServe(ctx, o, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := setupServe(ctx, o, c, newRecorder())
	if err != nil {
		plain.r.close()
		t.Fatal(err)
	}
	windows := runPaired(ctx, o, c, plain, ph)
	next := 0
	for _, w := range windows {
		if w[0] != next || w[1] <= w[0] {
			t.Fatalf("windows %v do not tile %d requests", windows, len(ph.reqs))
		}
		if w[1] < len(ph.reqs) && ph.reqs[w[1]].due == ph.reqs[w[1]-1].due {
			t.Errorf("window %v splits a duplicate pair", w)
		}
		next = w[1]
	}
	if next != len(ph.reqs) || len(windows) < 2 {
		t.Fatalf("windows %v for %d requests", windows, len(ph.reqs))
	}
	v := &verifier{want: make(map[string]*wantBody)}
	for _, p := range []*servePhase{plain, ph} {
		out := newOutputs(nil)
		if failed := p.check(ctx, c, v, out); failed != 0 {
			t.Fatalf("%d of %d requests failed: %v", failed, len(p.reqs), out.bad)
		}
	}
	var spans []span
	for _, s := range ph.rec.snapshot() {
		if s.Start >= ph.from {
			spans = append(spans, s)
		}
	}
	layers := byName(spans, make([]time.Duration, len(spans)))
	if layers["service.handler"].Calls != len(ph.reqs) {
		t.Errorf("%d handler spans for %d requests", layers["service.handler"].Calls, len(ph.reqs))
	}
	if ph.aCache.gets.Load() == 0 || ph.bPeer == nil {
		t.Error("cache wrappers saw no traffic")
	}
}
