// Command perfbench is the repository benchmark. It runs one workload
// against the simulator's public packages from outside, checks every
// output against the results recorded in expected.json, and prints each
// metric by name and unit, then one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the JSON carries the end-to-end metrics; with -trace 1 it
// alternates untraced and traced passes (or windows of requests) and
// carries the per-layer metrics, with the spans written under -out. See
// README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	_ "overlapsim/internal/strategy/all"
)

// processStart approximates process start: package variables initialize
// before main runs.
var processStart = time.Now()

// setupRuns is how many times a run sets its workload up; setup_s is the
// median. The machine the benchmark was tuned on changes speed over tens
// of seconds, so set-ups run both before and after the timed phase, and
// setup_s samples the same stretch of time as the timed metrics.
const setupRuns = 5

// setupsBefore is how many of n set-ups run before the timed phase; the
// last of them is the one the phase uses.
func setupsBefore(n int) int { return (n + 1) / 2 }

// seedStream is the second word of every PCG source the benchmark seeds.
const seedStream = 0x9e3779b97f4a7c15

// endToEnd and perLayer are the metrics the JSON line carries, in the
// order BENCHMARK.json lists them. Every workload measures each of them;
// metrics that only some workloads have are printed as text only.
var (
	endToEnd = []string{"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "cold_p50_ms",
		"alloc_mb_per_op", "peak_rss_mb"}
	perLayer = []string{
		"strategy.build_ms", "strategy.build_alloc_mb", "strategy.tasks_built", "strategy.useful_task_ratio",
		"exec.run_ms", "exec.measure_ms",
		"sim.epochs", "sim.tasks_retired", "sim.ghost_tasks", "sim.collapsed_classes", "sim.ns_per_epoch",
		"gpu.power_stats_ms", "core.fingerprint_us",
		"sweep.cache_get_us", "sweep.cache_put_us", "sweep.sim_ms",
		"bench.queue_ms", "bench.trace_overhead_pct",
	}
)

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	procs   int
	setups  int
	outDir  string
	want    *expectation
	record  string
}

// phase is how long the serve-mix schedule runs: all of the measured
// time, or half of it when the schedule is sent once untraced and once
// traced.
func (o options) phase() time.Duration {
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	return d
}

func (o options) spanFile(workload string) string {
	return filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", workload, o.seed))
}

var workloads = map[string]func(context.Context, options) (*runReport, error){
	"paper-grid": func(ctx context.Context, o options) (*runReport, error) { return runGrid(ctx, paperGrid, o) },
	"rank-scale": func(ctx context.Context, o options) (*runReport, error) { return runGrid(ctx, rankScale, o) },
	"serve-mix":  runServe,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: paper-grid, rank-scale or serve-mix")
		seed    = flag.Uint64("seed", 1, "seed for dispatch order, arrivals and request mix")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs a traced phase and reports per-layer metrics")
		outDir  = flag.String("out", ".bench_build", "directory for span files")
		record  = flag.String("record", "", "write this run's outputs as the expectation file at this path")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		return 2
	}
	exps, err := loadExpectations()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, procs: runtime.GOMAXPROCS(0),
		setups: setupRuns, outDir: *outDir, record: *record}
	if o.trace {
		o.setups = 1 // a traced run does not report setup_s
	}
	if o.record == "" {
		if o.want = exps[*name]; o.want == nil {
			fmt.Fprintf(os.Stderr, "perfbench: no recorded outputs for %s\n", *name)
			return 1
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	// A run must end well inside three minutes even if something wedges.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	fmt.Printf("workload %s, seed %d, %gs, trace %d, GOMAXPROCS %d\n", *name, o.seed, o.seconds, *trace, o.procs)
	rep, err := w(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	line, err := resultLine(rep, want)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, m := range rep.Metrics {
		if m.Note != "" {
			fmt.Printf("%-28s n/a (%s)\n", m.Name, m.Note)
		} else {
			fmt.Printf("%-28s %.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	fmt.Printf("ops attempted %d, failed %d\n", rep.Attempted, rep.Failed)
	fmt.Println(line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// resultLine renders the final JSON line with exactly the named metrics.
func resultLine(rep *runReport, names []string) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(names))
	for _, n := range names {
		m, ok := rep.get(n)
		if !ok || m.Note != "" {
			return "", fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, out})
	return string(b), err
}

// printSplit prints each layer's share of the traced self time.
func printSplit(layers map[string]*layerTotal) {
	var names []string
	var total time.Duration
	for n, t := range layers {
		names = append(names, n)
		total += t.Self
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]].Self > layers[names[j]].Self })
	fmt.Println("layer split (self time of traced spans):")
	for _, n := range names {
		t := layers[n]
		fmt.Printf("  %-18s %7d calls %10.1f ms %5.1f%%\n", n, t.Calls, ms(t.Self), 100*float64(t.Self)/float64(total))
	}
}
