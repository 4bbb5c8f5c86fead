// Package exec holds the plumbing shared by the distribution-strategy
// executors: execution modes (overlapped versus sequential), the plan a
// built schedule produces, per-iteration measurement extraction, and the
// dependency chaining used to serialize communication against computation
// in sequential mode.
package exec

import (
	"context"
	"errors"
	"fmt"

	"overlapsim/internal/gpu"
	"overlapsim/internal/metrics"
	"overlapsim/internal/sim"
	"overlapsim/internal/trace"
)

// Mode selects how communication is scheduled relative to computation.
type Mode int

// Execution modes (§IV-D: the measured Overlapping and Sequential
// scenarios; Ideal is derived, not executed).
const (
	// Overlapped runs communication on dedicated streams concurrently
	// with computation, as the training frameworks do by default.
	Overlapped Mode = iota
	// Sequential serializes every communication operation against the
	// computation of its participating devices: no overlap, no
	// contention.
	Sequential
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Overlapped:
		return "overlapped"
	case Sequential:
		return "sequential"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Plan is a fully built simulation ready to run.
type Plan struct {
	// Engine is the simulation engine with all tasks enqueued.
	Engine *sim.Engine
	// Cluster is the device platform (also the power observer).
	Cluster *gpu.Cluster
	// Iterations groups the created tasks by training iteration,
	// warmups first.
	Iterations [][]*sim.Task
	// Warmup is the number of leading iterations excluded from
	// measurement.
	Warmup int
	// Symmetry is the builder's rank-symmetry annotation. It only
	// steers whether the runner probes for collapsible classes; the
	// collapse itself is gated on structural proof (see symmetry.go).
	Symmetry Symmetry
	// NoCollapse disables the symmetry fast path even when detection
	// would prove it (differential tests, reference benchmarks).
	NoCollapse bool

	ran        bool
	classes    []sim.Class
	ghostTasks int
}

// Run executes the simulation.
func (p *Plan) Run() error {
	//overlaplint:allow ctxflow compat entrypoint: Run() is the no-context convenience wrapper; cancellable callers use RunContext
	return p.RunContext(context.Background())
}

// RunContext executes the simulation, stopping early with ctx.Err() when
// ctx is cancelled. A cancelled plan cannot be re-run.
//
// Before running, the plan applies the rank-symmetry fast path: it
// detects structurally identical devices, simulates one representative
// per class, and reconstructs the ghost ranks' timelines and telemetry
// afterwards — bit-identical to the full simulation, O(classes) instead
// of O(ranks). Collapse requires a deterministic rate model; jittered
// clusters always run in full.
func (p *Plan) RunContext(ctx context.Context) error {
	if p.ran {
		return fmt.Errorf("exec: plan already ran")
	}
	p.ran = true
	collapsible := !p.NoCollapse && p.Symmetry != SymmetryNone &&
		(p.Cluster == nil || p.Cluster.Deterministic())
	if collapsible {
		classes := p.mergeableClasses(p.Engine.DetectClasses(PayloadEq))
		if ghosts := p.Engine.Collapse(classes); ghosts > 0 {
			p.classes = classes
			p.ghostTasks = ghosts
			if p.Cluster != nil {
				p.Cluster.SetAliases(aliasVector(p.Cluster.N(), classes))
			}
		}
	}
	err := p.Engine.RunContext(ctx)
	if err == nil && p.ghostTasks > 0 && p.Cluster != nil {
		p.Cluster.FinalizeAliases()
	}
	return err
}

// GhostTasks reports how many tasks the symmetry fast path reconstructed
// instead of simulating (zero before the plan runs or when it ran in
// full).
func (p *Plan) GhostTasks() int { return p.ghostTasks }

// CollapsedClasses returns the symmetry classes the run actually merged.
func (p *Plan) CollapsedClasses() []sim.Class { return p.classes }

// ErrNotRun is returned when a plan's measurements are requested before
// the plan has executed.
var ErrNotRun = errors.New("exec: plan has not run")

// EngineStats reports the engine's scheduling self-stats (epochs, dirty
// rechecks, arena usage — see sim.Stats). Valid at any time; most useful
// after the plan has run, when it describes the whole execution.
func (p *Plan) EngineStats() sim.Stats {
	return p.Engine.Stats()
}

// MeasuredIterations returns the per-iteration measurements of the
// non-warmup iterations. Kernel times are per-GPU means (devices are
// symmetric under FSDP; under pipeline parallelism the mean is the paper's
// per-GPU aggregation); E2E is the span of the iteration's tasks. It
// returns ErrNotRun if the plan has not executed yet.
func (p *Plan) MeasuredIterations() ([]metrics.Iteration, error) {
	if !p.ran {
		return nil, fmt.Errorf("MeasuredIterations: %w", ErrNotRun)
	}
	alias := p.measureAlias()
	var out []metrics.Iteration
	for i := p.Warmup; i < len(p.Iterations); i++ {
		out = append(out, iterationMeasurement(p.Iterations[i], alias))
	}
	return out, nil
}

// measureAlias flattens the collapsed classes into a device→rep map for
// measurement extraction, or nil when the plan ran in full.
func (p *Plan) measureAlias() []int {
	if len(p.classes) == 0 {
		return nil
	}
	n := 0
	for _, c := range p.classes {
		for _, m := range c.Members {
			if m >= n {
				n = m + 1
			}
		}
	}
	if p.Cluster != nil && p.Cluster.N() > n {
		n = p.Cluster.N()
	}
	return aliasVector(n, p.classes)
}

// MeasuredTimeline returns the merged kernel timeline of the measured
// iterations (for overlap-ratio and trace reporting). It returns
// ErrNotRun if the plan has not executed yet.
func (p *Plan) MeasuredTimeline() (*trace.Timeline, error) {
	if !p.ran {
		return nil, fmt.Errorf("MeasuredTimeline: %w", ErrNotRun)
	}
	tl := trace.New()
	for i := p.Warmup; i < len(p.Iterations); i++ {
		for _, t := range p.Iterations[i] {
			tl.AddTask(t)
		}
	}
	return tl, nil
}

// IterationMeasurement extracts the paper's per-iteration measurement from
// one iteration's completed tasks. Kernel times are averaged across the
// devices present so that Eq. 4's subtraction of the absolute compute
// slowdown from the wall-clock E2E is dimensionally per-GPU.
func IterationMeasurement(tasks []*sim.Task) metrics.Iteration {
	return iterationMeasurement(tasks, nil)
}

// iterationMeasurement is IterationMeasurement with an optional
// device→representative alias map from a collapsed run. With aliases the
// timeline is built over representative devices only and each ghost
// device contributes its representative's cached per-device tuple — the
// same additions in the same device order as the full extraction, since
// a ghost's intervals are bitwise copies of its representative's. The
// result is bit-identical either way.
func iterationMeasurement(tasks []*sim.Task, alias []int) metrics.Iteration {
	var keep func(device int) bool
	if alias != nil {
		keep = func(device int) bool {
			return device >= len(alias) || alias[device] == device
		}
	}
	tl := trace.FromTasksKept(tasks, keep)
	var it metrics.Iteration
	devs := tl.Devices()
	if len(devs) == 0 {
		return it
	}
	n := 0.0
	if alias == nil {
		for _, d := range devs {
			computeT, commT, computeOv, commOv := tl.DeviceOverlap(d)
			it.ComputeKernelTime += computeT
			it.CommKernelTime += commT
			it.OverlappedComputeTime += computeOv
			it.OverlappedCommTime += commOv
		}
		n = float64(len(devs))
	} else {
		type overlap struct{ computeT, commT, computeOv, commOv float64 }
		cache := make(map[int]overlap, len(devs))
		for _, d := range devs {
			var o overlap
			o.computeT, o.commT, o.computeOv, o.commOv = tl.DeviceOverlap(d)
			cache[d] = o
		}
		for d := 0; d < len(alias); d++ {
			o, ok := cache[alias[d]]
			if !ok {
				continue // device without intervals in the full timeline either
			}
			it.ComputeKernelTime += o.computeT
			it.CommKernelTime += o.commT
			it.OverlappedComputeTime += o.computeOv
			it.OverlappedCommTime += o.commOv
			n++
		}
	}
	it.ComputeKernelTime /= n
	it.CommKernelTime /= n
	it.OverlappedComputeTime /= n
	it.OverlappedCommTime /= n
	// The iteration window opens at the first compute kernel (early-posted
	// communication belongs to the window of the data it carries) and
	// closes when everything has drained.
	_, end := tl.Span()
	start, _, ok := tl.KindSpan(sim.KindCompute)
	if !ok {
		start, _ = tl.Span()
	}
	it.E2E = end - start
	return it
}

// Chain serializes operations per device through explicit dependencies —
// the sequential-mode mechanism. Unlike stream FIFO order, dependency
// chaining cannot deadlock on rendezvous operations, because the per-device
// orders are generated from one legal global schedule.
type Chain struct {
	last map[int]*sim.Task
}

// NewChain returns an empty chain.
func NewChain() *Chain { return &Chain{last: make(map[int]*sim.Task)} }

// Order makes t run after every previously ordered operation on each of
// the listed devices, then records t as those devices' latest operation.
func (c *Chain) Order(t *sim.Task, devices ...int) {
	for _, d := range devices {
		if prev := c.last[d]; prev != nil && prev != t {
			t.After(prev)
		}
	}
	for _, d := range devices {
		c.last[d] = t
	}
}

// Last returns the most recent operation ordered on the device, or nil.
func (c *Chain) Last(device int) *sim.Task { return c.last[device] }
