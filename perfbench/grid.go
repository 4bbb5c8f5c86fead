package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"overlapsim/internal/core"
	"overlapsim/internal/hw"
	"overlapsim/internal/metrics"
	"overlapsim/internal/model"
	"overlapsim/internal/precision"
	"overlapsim/internal/sweep"
	"overlapsim/internal/workload"
)

// gridSpec is a closed-loop workload: passes over a fixed set of
// distinct configs, each pass run cold through sweep.Runner.
type gridSpec struct {
	name    string
	configs func() []core.Config
	// workers is the runner's pool size: nproc for the paper grid, one
	// for the rank-scale points, whose two modes already use two cores.
	workers int
	// warmup is how many of the listed configs set-up runs once.
	warmup int
	// perPoint summarises latency per point first, for a few points of
	// very different cost: op_p50_ms is then the geometric mean of the
	// points' median latencies and op_tail_ms the largest. Otherwise they
	// are the median and p95 over all ops.
	perPoint bool
	// collect runs the garbage collector after each point, inside the
	// pass's time, so that a point's latency does not depend on how much
	// garbage the point before it left.
	collect bool
}

// paperGridConfigs lists every config behind the paper's figures.
func paperGridConfigs() []core.Config {
	var all []core.Config
	for _, g := range [][]core.Config{workload.MainGrid(), workload.Figure1a(), workload.Figure1b(),
		workload.Figure9(), workload.Figure10(), workload.Figure11()} {
		all = append(all, g...)
	}
	return all
}

// rankScaleConfigs are the multi-node capacity-planning points: one
// iteration each, per-GPU batch 1 for the data-parallel points.
func rankScaleConfigs() []core.Config {
	h100 := hw.H100()
	base := core.Config{Model: model.GPT3XL(), Format: precision.FP16, MatrixUnits: true, Iterations: 1, Warmup: 0}
	fsdp512, fsdp4096, ddp512, pp := base, base, base, base
	fsdp512.System, fsdp512.Parallelism, fsdp512.Batch = hw.NewMultiNode(h100, 8, 64), "fsdp", 512
	fsdp4096.System, fsdp4096.Parallelism, fsdp4096.Batch = hw.NewMultiNode(h100, 8, 512), "fsdp", 4096
	ddp512.System, ddp512.Parallelism, ddp512.Batch = hw.NewMultiNode(h100, 8, 64), "ddp", 512
	pp.System, pp.Model, pp.Parallelism, pp.Batch = hw.NewMultiNode(h100, 8, 4), model.GPT3_13B(), "pp", 128
	// Set-up warms up on the first two.
	return []core.Config{fsdp512, ddp512, pp, fsdp4096}
}

var paperGrid = gridSpec{name: "paper-grid", configs: paperGridConfigs, workers: 0, warmup: 32}

var rankScale = gridSpec{name: "rank-scale", configs: rankScaleConfigs, workers: 1, warmup: 2, perPoint: true, collect: true}

// gridSet is a deduplicated config set in fingerprint order.
type gridSet struct {
	cfgs []core.Config
	keys []string
}

func newGridSet(listed []core.Config) (*gridSet, error) {
	byKey := make(map[string]core.Config)
	for _, c := range listed {
		k, err := c.Fingerprint()
		if err != nil {
			return nil, err
		}
		if _, dup := byKey[k]; !dup {
			byKey[k] = c
		}
	}
	s := &gridSet{}
	for k := range byKey {
		s.keys = append(s.keys, k)
	}
	sort.Strings(s.keys)
	for _, k := range s.keys {
		s.cfgs = append(s.cfgs, byKey[k])
	}
	return s, nil
}

// pass is one run over the whole set.
type pass struct {
	dur   time.Duration
	alloc uint64
	pts   []sweep.Point   // in set order
	lat   []time.Duration // in set order
}

// runPass runs the set once, cold, in the given dispatch order. With a
// recorder it runs the traced executor; without, sweep.Runner itself.
func (s *gridSet) runPass(ctx context.Context, spec gridSpec, order []int, rec *recorder, opBase int64) (pass, error) {
	n := len(s.cfgs)
	p := pass{pts: make([]sweep.Point, n), lat: make([]time.Duration, n)}
	a0 := totalAlloc()
	start := time.Now()
	if rec != nil {
		p.pts = tracedPass(ctx, rec, spec.workers, s.cfgs, order, opBase, sweep.NewMemCache(), spec.collect)
	} else {
		shuffled := make([]core.Config, n)
		for i, j := range order {
			shuffled[i] = s.cfgs[j]
		}
		cache := newStartCache()
		r := &sweep.Runner{Workers: spec.workers, Cache: cache, OnPoint: func(pt sweep.Point) {
			p.lat[order[pt.Index]] = time.Since(cache.started(pt.Key))
			if spec.collect {
				runtime.GC()
			}
		}}
		res, err := r.Run(ctx, shuffled)
		if err != nil {
			return p, err
		}
		for i, pt := range res.Points {
			p.pts[order[i]] = pt
		}
	}
	p.dur = time.Since(start)
	p.alloc = totalAlloc() - a0
	return p, nil
}

// checkPass verifies every point of a pass against the recorded outputs
// and returns how many failed.
func (s *gridSet) checkPass(p pass, out *outputs) int {
	failed := 0
	for i, pt := range p.pts {
		var hash string
		switch {
		case pt.OOM != nil:
			hash = oomHash(pt.OOM)
		case pt.Res != nil:
			h, err := resultHash(pt.Res)
			if err != nil {
				failed++
				continue
			}
			hash = h
		default:
			failed++
			out.bad = append(out.bad, fmt.Sprintf("%s: %v", s.cfgs[i].Label(), pt.Err))
			continue
		}
		if !out.check(s.keys[i], hash) {
			failed++
		}
	}
	return failed
}

// paperAggregates derives the abstract's four MainGrid aggregates from a
// pass and their mean absolute gap to the paper's values, in percentage
// points.
func (s *gridSet) paperAggregates(p pass) (map[string]float64, error) {
	at := make(map[string]*core.Result, len(s.keys))
	for i, k := range s.keys {
		at[k] = p.pts[i].Res
	}
	var slow, pen []float64
	for _, c := range workload.MainGrid() {
		k, err := c.Fingerprint()
		if err != nil {
			return nil, err
		}
		if r := at[k]; r != nil {
			slow = append(slow, r.Char.ComputeSlowdown)
			pen = append(pen, r.Char.SeqPenalty)
		}
	}
	sl, pe := metrics.Summarize(slow), metrics.Summarize(pen)
	aggs := map[string]float64{
		"slowdown_mean_pct": sl.Mean * 100, "slowdown_max_pct": sl.Max * 100,
		"seqpen_mean_pct": pe.Mean * 100, "seqpen_max_pct": pe.Max * 100,
	}
	aggs["paper_gap_pp"] = (math.Abs(aggs["slowdown_mean_pct"]-18.9) + math.Abs(aggs["slowdown_max_pct"]-40.0) +
		math.Abs(aggs["seqpen_mean_pct"]-10.2) + math.Abs(aggs["seqpen_max_pct"]-26.6)) / 4
	return aggs, nil
}

// measure runs whole passes until d is spent (at least two, so every
// pass-level statistic has a spread), sampling the host probe after each
// pass when hs is set. With a recorder each untraced pass has a traced
// partner in the same dispatch order, run right before or after it, the
// order alternating from pair to pair: the two passes of a pair run
// under the same machine conditions, and neither side always runs first.
func (s *gridSet) measure(ctx context.Context, spec gridSpec, rng *rand.Rand, d time.Duration, rec *recorder, hs *hostSpeed) (plain, traced []pass, err error) {
	start := time.Now()
	for len(plain) < 2 || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		order := rng.Perm(len(s.cfgs))
		recs := []*recorder{nil}
		if rec != nil {
			recs = []*recorder{nil, rec}
			if len(plain)%2 == 1 {
				recs = []*recorder{rec, nil}
			}
		}
		for _, r := range recs {
			p, err := s.runPass(ctx, spec, order, r, int64(len(traced)*len(s.cfgs)))
			if err != nil {
				return nil, nil, err
			}
			if r == nil {
				plain = append(plain, p)
			} else {
				traced = append(traced, p)
			}
			if hs != nil {
				hs.sample()
			}
		}
	}
	return plain, traced, nil
}

func runGrid(ctx context.Context, spec gridSpec, o options) (*runReport, error) {
	if spec.workers <= 0 {
		spec.workers = o.procs
	}
	rep := &runReport{Correct: true}
	out := newOutputs(o.want)

	hs := newHostSpeed(o.procs)
	var setups []float64
	setUp := func() (*gridSet, error) {
		t := time.Now()
		set, err := newGridSet(spec.configs())
		if err != nil {
			return nil, err
		}
		warm, err := newGridSet(spec.configs()[:spec.warmup])
		if err != nil {
			return nil, err
		}
		if _, err := warm.runPass(ctx, spec, identity(len(warm.cfgs)), nil, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		hs.sample()
		return set, nil
	}
	firstSetup := time.Now()
	var set *gridSet
	for i := 0; i < setupsBefore(o.setups); i++ {
		var err error
		if set, err = setUp(); err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewPCG(o.seed, seedStream))
	var rec *recorder
	measureHS := hs
	if o.trace {
		rec, measureHS = newRecorder(), nil
	}
	resetPeakRSS()
	plain, traced, err := set.measure(ctx, spec, rng, time.Duration(o.seconds*float64(time.Second)), rec, measureHS)
	if err != nil {
		return nil, err
	}
	peakMB := peakRSSMB()
	for i := setupsBefore(o.setups); i < o.setups; i++ {
		if _, err := setUp(); err != nil {
			return nil, err
		}
	}
	setupS := firstSetup.Sub(processStart).Seconds() + median(setups)
	fmt.Printf("set-up seconds: %.3f before, %.3f\n", firstSetup.Sub(processStart).Seconds(), setups)

	for _, p := range append(append([]pass(nil), plain...), traced...) {
		rep.Attempted += len(p.pts)
		rep.fail(set.checkPass(p, out))
	}
	// Every pass's points were checked one by one, so the aggregates of
	// one pass stand for all.
	var aggs map[string]float64
	if spec.name == paperGrid.name {
		if aggs, err = set.paperAggregates(plain[0]); err != nil {
			return nil, err
		}
	}
	for name, v := range aggs {
		if !out.checkAggregate(name, v) {
			rep.fail(1)
		}
	}
	if !out.checkDigest() {
		rep.fail(1)
	}
	reportChecks(out)
	if o.record != "" {
		if err := recordExpectation(o.record, spec.name, out.got, aggs); err != nil {
			return nil, err
		}
	}

	fmt.Print("pass seconds:")
	for i, p := range plain {
		fmt.Printf(" %.3f", p.dur.Seconds())
		if i < len(traced) {
			fmt.Printf(" (traced %.3f)", traced[i].dur.Seconds())
		}
	}
	fmt.Println()
	if !o.trace {
		hs.report()
		if err := gridEndToEnd(rep, spec, set, plain, setupS, peakMB, hs.factor()); err != nil {
			return nil, err
		}
		if g, ok := aggs["paper_gap_pp"]; ok {
			rep.add("paper_gap_pp", "pp", g)
		} else {
			rep.na("paper_gap_pp", "pp", "MainGrid is not run")
		}
		return rep, nil
	}

	return rep, gridLayers(rep, o, spec, set, plain, traced, rec)
}

// gridLayers reports the per-layer metrics of a grid workload's traced
// passes.
func gridLayers(rep *runReport, o options, spec gridSpec, set *gridSet, plain, traced []pass, rec *recorder) error {
	spans := rec.snapshot()
	if err := rec.write(o.spanFile(spec.name)); err != nil {
		return err
	}
	self := selfTimes(spans)
	layers := byName(spans, self)

	// The engine layers count the points that simulated, not the OOM
	// rejections, which stop in strategy.build.
	var results []*core.Result
	for _, p := range traced {
		for _, pt := range p.pts {
			if pt.Res != nil {
				results = append(results, pt.Res)
			}
		}
	}
	simOps := make(map[int64]bool)
	for _, s := range spans {
		if s.Name == "sweep.cache_put" {
			simOps[s.Op] = true
		}
	}
	var engSpans []span
	var engSelf []time.Duration
	for i, s := range spans {
		if simOps[s.Op] {
			engSpans = append(engSpans, s)
			engSelf = append(engSelf, self[i])
		}
	}
	engLayers := byName(engSpans, engSelf)

	addEngineMetrics(rep, engLayers, results, buildAllocMB(set.cfgs))
	rep.add("core.fingerprint_us", "us", layers["core.fingerprint"].meanMs()*1000)
	rep.add("sweep.cache_get_us", "us", layers["sweep.cache_get"].meanMs()*1000)
	rep.add("sweep.cache_put_us", "us", layers["sweep.cache_put"].meanMs()*1000)
	rep.na("sweep.cache_hit_ratio", "ratio", "every pass starts with a fresh cache")
	rep.add("sweep.sim_ms", "ms", engLayers["sweep.sim"].meanMs())
	rep.na("store.flight_waiters", "count", "the runner has no singleflight group")
	rep.na("store.coalesced_ratio", "ratio", "no duplicate requests")
	rep.na("store.peer_get_ms", "ms", "no peer cache")
	rep.na("store.peer_hit_ratio", "ratio", "no peer cache")
	rep.na("service.handler_ms", "ms", "no HTTP requests")
	rep.na("service.self_ms", "ms", "no HTTP requests")
	rep.na("service.resp_kb", "KB", "no HTTP requests")
	// An op's self time is what it spends outside the layers: dispatch
	// and the harness's own bookkeeping.
	var queue time.Duration
	for i, s := range spans {
		if s.Name == "op" {
			queue += self[i]
		}
	}
	rep.add("bench.queue_ms", "ms", ms(queue)/float64(layers["op"].Calls))
	rep.na("bench.gen_lag_p99_ms", "ms", "closed loop")
	var plainS, tracedS []float64
	for i := range traced {
		plainS, tracedS = append(plainS, plain[i].dur.Seconds()), append(tracedS, traced[i].dur.Seconds())
	}
	rep.add("bench.trace_overhead_pct", "%", pairedOverheadPct(plainS, tracedS))
	printSplit(layers)
	return nil
}

// gridEndToEnd reports the untraced end-to-end metrics of a grid
// workload; f converts the run's host times into reference time
// (probe.go).
func gridEndToEnd(rep *runReport, spec gridSpec, set *gridSet, passes []pass, setupS, peakMB, f float64) error {
	var lat, cold []float64
	perKey := make(map[string][]float64)
	var alloc uint64
	var dur time.Duration
	for _, p := range passes {
		alloc += p.alloc
		dur += p.dur
		for i, pt := range p.pts {
			l := ms(p.lat[i])
			lat = append(lat, l)
			perKey[set.keys[i]] = append(perKey[set.keys[i]], l)
			if pt.Res != nil {
				cold = append(cold, l)
			}
		}
	}
	p50, coldP50 := median(lat), median(cold)
	var tail float64
	if spec.perPoint {
		logSum := 0.0
		for i, k := range set.keys {
			m := median(perKey[k])
			fmt.Printf("point %-40s median %9.1f ms over %d ops\n", set.cfgs[i].Label(), m, len(perKey[k]))
			logSum += math.Log(m)
			tail = max(tail, m)
		}
		p50 = math.Exp(logSum / float64(len(set.keys)))
		coldP50 = p50
		rep.na("op_p95_ms", "ms", fmt.Sprintf("%d ops, too few for a p95", len(lat)))
	} else {
		var err error
		if tail, err = percentile(lat, 0.95); err != nil {
			return err
		}
		rep.add("op_p95_ms", "ms", tail*f)
	}
	rep.na("op_p99_ms", "ms", fmt.Sprintf("%d ops, too few for a p99", len(lat)))
	opsPerS := float64(len(lat)) / dur.Seconds()
	fmt.Printf("host time: setup_s %.6g, ops_per_s %.6g, op_p50_ms %.6g, op_tail_ms %.6g, cold_p50_ms %.6g\n",
		setupS, opsPerS, p50, tail, coldP50)
	rep.add("setup_s", "s", setupS*f)
	rep.add("ops_per_s", "1/s", opsPerS/f)
	rep.add("op_p50_ms", "ms", p50*f)
	rep.add("op_tail_ms", "ms", tail*f)
	rep.add("cold_p50_ms", "ms", coldP50*f)
	rep.add("alloc_mb_per_op", "MB", float64(alloc)/float64(len(lat))/(1<<20))
	rep.add("peak_rss_mb", "MB", peakMB)
	rep.add("error_ratio", "ratio", float64(rep.Failed)/float64(rep.Attempted))
	return nil
}

// pairedOverheadPct is the median over pairs of how much more the traced
// member of a pair measured than the untraced one, in percent.
func pairedOverheadPct(plain, traced []float64) float64 {
	xs := make([]float64, len(plain))
	for i := range plain {
		xs[i] = (traced[i]/plain[i] - 1) * 100
	}
	return median(xs)
}

// addEngineMetrics reports the strategy, exec, sim and gpu layers: span
// times and engine counters per simulated point (both modes summed).
func addEngineMetrics(rep *runReport, layers map[string]*layerTotal, results []*core.Result, allocMB float64) {
	var tasks, retired, ghosts, classes, epochs float64
	for _, r := range results {
		for _, e := range []struct {
			t, r, g int
			c, ep   int64
		}{
			{r.Overlapped.Engine.Tasks, r.Overlapped.Engine.TasksRetired, r.Overlapped.Engine.GhostTasks, r.Overlapped.Engine.CollapsedClasses, r.Overlapped.Engine.Epochs},
			{r.Sequential.Engine.Tasks, r.Sequential.Engine.TasksRetired, r.Sequential.Engine.GhostTasks, r.Sequential.Engine.CollapsedClasses, r.Sequential.Engine.Epochs},
		} {
			tasks += float64(e.t)
			retired += float64(e.r)
			ghosts += float64(e.g)
			classes += float64(e.c)
			epochs += float64(e.ep)
		}
	}
	n := float64(len(results))
	perPoint := func(name string) float64 {
		if t := layers[name]; t != nil && n > 0 {
			return ms(t.Total) / n
		}
		return 0
	}
	rep.add("strategy.build_ms", "ms", perPoint("strategy.build"))
	rep.add("strategy.build_alloc_mb", "MB", allocMB)
	rep.add("strategy.tasks_built", "count", tasks/n)
	rep.add("strategy.useful_task_ratio", "ratio", (tasks-ghosts)/tasks)
	rep.add("exec.run_ms", "ms", perPoint("exec.run"))
	rep.add("exec.measure_ms", "ms", perPoint("exec.measure"))
	rep.add("sim.epochs", "count", epochs/n)
	rep.add("sim.tasks_retired", "count", retired/n)
	rep.add("sim.ghost_tasks", "count", ghosts/n)
	rep.add("sim.collapsed_classes", "count", classes/n)
	var runNs float64
	if t := layers["exec.run"]; t != nil {
		runNs = float64(t.Total)
	}
	rep.add("sim.ns_per_epoch", "ns", runNs/epochs)
	rep.add("gpu.power_stats_ms", "ms", perPoint("gpu.power_stats"))
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
