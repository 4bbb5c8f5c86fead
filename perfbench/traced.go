package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"overlapsim/internal/core"
	"overlapsim/internal/exec"
	"overlapsim/internal/metrics"
	"overlapsim/internal/model"
	"overlapsim/internal/sweep"
)

// The traced executor runs one grid point the way sweep.Runner and
// core.Run do, through the same public calls, with a span around each:
//
//	op → core.fingerprint, sweep.cache_get, sweep.sim, sweep.cache_put
//	sweep.sim → per mode: strategy.build, exec.run, exec.measure, gpu.power_stats
//
// Its results are checked against the recorded outputs of core.Run like
// every other op, so a drift between this mirror and the library shows
// up as a failed check.

// tracedPoint fingerprints cfg, looks it up in cache and on a miss
// simulates and stores it.
func tracedPoint(ctx context.Context, rec *recorder, op int64, cfg core.Config, cache sweep.Cache) sweep.Point {
	root := rec.begin("op", -1, op, "")
	defer rec.end(root)
	pt := sweep.Point{Config: cfg}

	id := rec.begin("core.fingerprint", root, op, "")
	key, err := cfg.Fingerprint()
	rec.end(id)
	if err != nil {
		pt.Err = err
		return pt
	}
	pt.Key = key

	id = rec.begin("sweep.cache_get", root, op, key)
	res, ok := cache.Get(key)
	rec.end(id)
	if ok {
		pt.Res, pt.CacheHit = res, true
		return pt
	}

	id = rec.begin("sweep.sim", root, op, key)
	res, err = tracedRun(ctx, rec, id, op, key, cfg)
	rec.end(id)
	if err != nil {
		var oom *model.ErrOOM
		if errors.As(err, &oom) {
			pt.OOM = oom
		} else {
			pt.Err = err
		}
		return pt
	}
	pt.Res = res

	id = rec.begin("sweep.cache_put", root, op, key)
	err = cache.Put(key, res)
	rec.end(id)
	if err != nil {
		pt.Note = err.Error()
	}
	return pt
}

// tracedRun mirrors core.Run: both modes at once, then Eq. 1–5.
func tracedRun(ctx context.Context, rec *recorder, parent int, op int64, key string, cfg core.Config) (*core.Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg   sync.WaitGroup
		res  [2]*core.ModeResult
		errs [2]error
	)
	for i, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = tracedMode(ctx, rec, parent, op, key, cfg, mode)
			if errs[i] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	ovl, seq := res[0], res[1]
	return &core.Result{
		Config:     cfg,
		Overlapped: *ovl,
		Sequential: *seq,
		Char:       metrics.Characterize(seq.Mean, ovl.Mean),
	}, nil
}

// tracedMode mirrors core.RunMode.
func tracedMode(ctx context.Context, rec *recorder, parent int, op int64, key string, cfg core.Config, mode exec.Mode) (*core.ModeResult, error) {
	id := rec.begin("strategy.build", parent, op, key)
	plan, err := core.BuildPlan(cfg, mode)
	rec.end(id)
	if err != nil {
		return nil, err
	}

	id = rec.begin("exec.run", parent, op, key)
	err = plan.RunContext(ctx)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("core: %s (%v): %w", cfg.Label(), mode, err)
	}

	id = rec.begin("exec.measure", parent, op, key)
	its, err := plan.MeasuredIterations()
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("core: %s (%v): %w", cfg.Label(), mode, err)
	}
	res := &core.ModeResult{Mode: mode, Iterations: its}
	res.Mean = metrics.Mean(its)
	res.OverlapRatio = res.Mean.OverlapRatio()
	res.Engine = plan.EngineStats()

	id = rec.begin("gpu.power_stats", parent, op, key)
	cl := plan.Cluster
	for i := 0; i < cl.N(); i++ {
		st := cl.PowerStats(i)
		res.GPUPower = append(res.GPUPower, st)
		res.AvgTDP += st.AvgTDP / float64(cl.N())
		if st.PeakTDP > res.PeakTDP {
			res.PeakTDP = st.PeakTDP
		}
		res.EnergyJ += st.EnergyJ
		if tr := cl.Trace(i); tr != nil {
			res.Traces = append(res.Traces, tr.Samples())
		}
	}
	rec.end(id)
	return res, nil
}

// tracedPass runs cfgs in the given order on a fixed pool of workers, as
// sweep.Runner does, and returns the points in input order. With collect
// each worker runs the garbage collector after each point.
func tracedPass(ctx context.Context, rec *recorder, workers int, cfgs []core.Config, order []int, opBase int64, cache sweep.Cache, collect bool) []sweep.Point {
	pts := make([]sweep.Point, len(cfgs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				pts[i] = tracedPoint(ctx, rec, opBase+int64(i), cfgs[i], cache)
				if collect {
					runtime.GC()
				}
			}
		}()
	}
	for _, i := range order {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return pts
}

// buildAllocMB measures, one call at a time so nothing else allocates
// meanwhile, the heap bytes core.BuildPlan allocates per point (both
// modes), averaged over the configs that build.
func buildAllocMB(cfgs []core.Config) float64 {
	var total uint64
	var n int
	for _, cfg := range cfgs {
		var point uint64
		built := true
		for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
			a := totalAlloc()
			_, err := core.BuildPlan(cfg, mode)
			point += totalAlloc() - a
			built = built && err == nil
		}
		if built {
			total += point
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / (1 << 20)
}
