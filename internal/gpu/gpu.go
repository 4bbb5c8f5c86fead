// Package gpu implements the device model: a cluster of identical GPUs
// that serves as the simulation Platform. It converts kernel and
// collective descriptors into execution rates, applying the three
// contention mechanisms the paper identifies — SM stealing by collective
// kernels, HBM bandwidth sharing, and power-cap-induced DVFS throttling —
// and observes every simulated segment to drive the power telemetry.
package gpu

import (
	"fmt"
	"math"
	"math/rand"

	"overlapsim/internal/collective"
	"overlapsim/internal/hw"
	"overlapsim/internal/kernels"
	"overlapsim/internal/power"
	"overlapsim/internal/precision"
	"overlapsim/internal/sim"
	"overlapsim/internal/topo"
)

// Config configures a Cluster.
type Config struct {
	// System is the system under simulation — one node or several joined
	// by a hierarchical fabric; the cluster simulates System.TotalGPUs()
	// devices.
	System hw.System
	// Caps are the power/frequency limits applied to every GPU.
	Caps power.Caps
	// SamplerInterval overrides the vendor-default telemetry interval
	// (seconds); zero selects NVML 100 ms or AMD-SMI 20 ms by vendor.
	SamplerInterval float64
	// TraceInterval, when nonzero, additionally records a fine-grained
	// power trace at this interval (Fig. 7 uses 1 ms).
	TraceInterval float64
	// JitterSigma adds lognormal run-to-run variation to kernel rates
	// (fractional sigma, for example 0.02); zero is fully deterministic.
	JitterSigma float64
	// Seed seeds the jitter stream. Every cluster owns a private
	// generator seeded here — there is no shared or global source — so
	// concurrent simulations (core.Run's two modes, sweep workers) are
	// reproducible independently of scheduling; callers running several
	// clusters of one experiment must derive a distinct seed per cluster.
	Seed int64
}

// Cluster is a system of identical GPUs — one node or several behind a
// hierarchical fabric. It implements sim.Platform (rate assignment) and
// sim.Observer (power integration).
type Cluster struct {
	cfg      Config
	n        int
	g        *hw.GPUSpec
	fabric   topo.Fabric
	freq     []float64
	samplers []*power.Sampler
	traces   []*power.Sampler
	rng      *rand.Rand
	jitter   map[*sim.Task]float64

	// scratch, reused across epochs
	compute [][]*sim.Task
	comms   [][]*sim.Task

	// partFresh marks the scratch partition as computed by Rates for the
	// current epoch; Segment observes the identical running set
	// immediately after and skips repartitioning. partLen guards the
	// reuse against out-of-band Segment calls.
	partFresh bool
	partLen   int

	// idleFreq and idleW are the DVFS solution and power draw of a fully
	// idle device — constant for a given cap configuration, precomputed so
	// per-epoch device sweeps skip the fixed-point solve on quiet devices.
	idleFreq float64
	idleW    float64

	// alias maps each device to its symmetry-class representative when a
	// collapsed plan runs (see SetAliases); active lists the devices that
	// are actually simulated. Both nil for a full simulation.
	alias  []int
	active []int
}

var (
	_ sim.Platform = (*Cluster)(nil)
	_ sim.Observer = (*Cluster)(nil)
)

// New builds a cluster for the given configuration.
func New(cfg Config) (*Cluster, error) {
	if cfg.System.GPU == nil || cfg.System.N < 1 || cfg.System.Nodes < 0 {
		return nil, fmt.Errorf("gpu: invalid system %+v", cfg.System)
	}
	if err := cfg.Caps.Validate(cfg.System.GPU); err != nil {
		return nil, err
	}
	n := cfg.System.TotalGPUs()
	interval := cfg.SamplerInterval
	if interval <= 0 {
		interval = power.SamplerIntervalFor(cfg.System.GPU.Vendor)
	}
	c := &Cluster{
		cfg:     cfg,
		n:       n,
		g:       cfg.System.GPU,
		fabric:  topo.ForSystem(cfg.System),
		freq:    make([]float64, n),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		jitter:  make(map[*sim.Task]float64),
		compute: make([][]*sim.Task, n),
		comms:   make([][]*sim.Task, n),
	}
	for i := range c.freq {
		c.freq[i] = 1
	}
	for i := 0; i < n; i++ {
		s, err := power.NewSampler(interval)
		if err != nil {
			return nil, err
		}
		c.samplers = append(c.samplers, s)
		if cfg.TraceInterval > 0 {
			tr, err := power.NewSampler(cfg.TraceInterval)
			if err != nil {
				return nil, err
			}
			c.traces = append(c.traces, tr)
		}
	}
	c.idleFreq = power.SolveFreq(c.g, power.Activity{}, c.cfg.Caps)
	c.idleW = power.Instant(c.g, power.Activity{}, c.idleFreq)
	return c, nil
}

// Fabric returns the cluster's interconnect model.
func (c *Cluster) Fabric() topo.Fabric { return c.fabric }

// GPU returns the device spec.
func (c *Cluster) GPU() *hw.GPUSpec { return c.g }

// N returns the number of GPUs across all nodes.
func (c *Cluster) N() int { return c.n }

// FreqFactor returns the most recently solved DVFS frequency factor of
// GPU i.
func (c *Cluster) FreqFactor(i int) float64 { return c.freq[i] }

// Sampler returns the telemetry sampler of GPU i.
func (c *Cluster) Sampler(i int) *power.Sampler { return c.samplers[i] }

// Trace returns the fine-grained power trace of GPU i, or nil if tracing
// was not enabled.
func (c *Cluster) Trace(i int) *power.Sampler {
	if c.traces == nil {
		return nil
	}
	return c.traces[i]
}

// PowerStats summarizes the telemetry of GPU i.
func (c *Cluster) PowerStats(i int) power.Stats {
	return power.StatsFor(c.samplers[i], c.g)
}

// jitterFor returns the stable rate multiplier of a task.
func (c *Cluster) jitterFor(t *sim.Task) float64 {
	if c.cfg.JitterSigma <= 0 {
		return 1
	}
	if j, ok := c.jitter[t]; ok {
		return j
	}
	j := math.Exp(c.rng.NormFloat64() * c.cfg.JitterSigma)
	c.jitter[t] = j
	return j
}

// partition groups the running tasks by device into compute and comm sets.
// Aliased (collapsed) devices are excluded: their timelines come from the
// class representative, so accumulating per-epoch comm sets for them would
// re-introduce the O(ranks) cost the collapse removed.
func (c *Cluster) partition(running []*sim.Task) {
	alias := c.alias
	if c.active != nil {
		for _, i := range c.active {
			c.compute[i] = c.compute[i][:0]
			c.comms[i] = c.comms[i][:0]
		}
	} else {
		for i := range c.compute {
			c.compute[i] = c.compute[i][:0]
			c.comms[i] = c.comms[i][:0]
		}
	}
	for _, t := range running {
		switch p := t.Payload().(type) {
		case kernels.Desc:
			d := t.Streams()[0].Device()
			c.compute[d] = append(c.compute[d], t)
		case collective.Desc:
			if p.Op == collective.SendRecv && p.Waiting() {
				// A posted receive spins only on the destination; the
				// sender's kernel does not launch until the producer is
				// done.
				if alias == nil || alias[p.Dst] == p.Dst {
					c.comms[p.Dst] = append(c.comms[p.Dst], t)
				}
				continue
			}
			for _, r := range p.Participants() {
				if alias != nil && alias[r] != r {
					continue
				}
				c.comms[r] = append(c.comms[r], t)
			}
		default:
			// Host tasks run at unit rate and occupy no device resources.
		}
	}
}

// Rates implements sim.Platform.
func (c *Cluster) Rates(now float64, running []*sim.Task) {
	c.partition(running)
	c.partFresh, c.partLen = true, len(running)

	// Communication rates first: collectives are bandwidth-bound and set
	// the contention pressure computes see.
	for _, t := range running {
		switch p := t.Payload().(type) {
		case collective.Desc:
			if p.Waiting() {
				// Posted-early kernel spinning for its producer: resident
				// but moving no data.
				t.SetRate(0)
			} else {
				t.SetRate(p.WireBW(c.fabric) * c.jitterFor(t))
			}
		case kernels.Desc:
			// set below
		default:
			// Host and other non-device tasks run at unit rate.
			t.SetRate(1)
		}
	}

	c.eachDevice(func(dev int) {
		nCompute := len(c.compute[dev])
		if nCompute == 0 && len(c.comms[dev]) == 0 {
			// Fully idle device: the cap solution is a constant,
			// precomputed in New.
			c.freq[dev] = c.idleFreq
			return
		}
		smStolen, hbmStolen, serialize := c.pressure(dev)
		if nCompute == 0 {
			c.freq[dev] = c.solveFreqIdleComm(dev)
			return
		}

		// Fixed-point iteration between rate and DVFS frequency: rates
		// depend on f, the cap-solved f depends on the activity the rates
		// imply. Compute-bound kernels converge immediately; memory-bound
		// ones within a few iterations.
		f := c.freq[dev]
		if f <= 0 {
			f = 1
		}
		for iter := 0; iter < 4; iter++ {
			act := c.deviceActivity(dev, f, smStolen, hbmStolen, serialize)
			nf := power.SolveFreq(c.g, act, c.cfg.Caps)
			if math.Abs(nf-f) < 1e-6 {
				f = nf
				break
			}
			f = nf
		}
		c.freq[dev] = f

		for _, t := range c.compute[dev] {
			kd := t.Payload().(kernels.Desc)
			r := kernels.Rate(kd, c.g, f, smStolen, hbmStolen, serialize)
			if nCompute > 1 {
				r /= float64(nCompute)
			}
			t.SetRate(r * c.jitterFor(t))
		}
	})
}

// SetAliases installs the device→representative map of a collapsed plan
// (alias[d] == d for simulated devices, the class representative for the
// rest). A nil or identity map restores full simulation. The map must
// cover every device. Callers must install aliases before the run and
// call FinalizeAliases after it.
func (c *Cluster) SetAliases(alias []int) {
	c.alias, c.active = nil, nil
	if alias == nil || len(alias) < c.n {
		return
	}
	identity := true
	for d := 0; d < c.n; d++ {
		if alias[d] != d {
			identity = false
			break
		}
	}
	if identity {
		return
	}
	c.alias = alias
	for d := 0; d < c.n; d++ {
		// Clear ghost scratch once here: partition only resets active
		// devices from now on.
		c.compute[d] = c.compute[d][:0]
		c.comms[d] = c.comms[d][:0]
		if alias[d] == d {
			c.active = append(c.active, d)
		}
	}
}

// FinalizeAliases back-fills aliased devices' telemetry from their class
// representatives after a collapsed run. Sharing the sampler and trace
// by reference is exact, not an approximation: class members of a
// deterministic run would have produced bit-identical telemetry.
func (c *Cluster) FinalizeAliases() {
	if c.alias == nil {
		return
	}
	for d := 0; d < c.n; d++ {
		rep := c.alias[d]
		if rep == d {
			continue
		}
		c.freq[d] = c.freq[rep]
		c.samplers[d] = c.samplers[rep]
		if c.traces != nil {
			c.traces[d] = c.traces[rep]
		}
	}
}

// Deterministic reports whether the rate model is free of run-to-run
// jitter — the precondition for collapsing symmetry classes.
func (c *Cluster) Deterministic() bool { return c.cfg.JitterSigma <= 0 }

// eachDevice runs fn once per simulated device: the class
// representatives of a collapsed run, every device otherwise.
func (c *Cluster) eachDevice(fn func(dev int)) {
	if c.active != nil {
		for _, dev := range c.active {
			fn(dev)
		}
		return
	}
	for dev := 0; dev < c.n; dev++ {
		fn(dev)
	}
}

// serializeWeight scales the vendor serialization fraction by operation
// class: reducing ring collectives interfere with the compute scheduler
// most, copy collectives less, and point-to-point kernels (few channels,
// mostly spinning) least.
func serializeWeight(op collective.Op) float64 {
	switch {
	case op.Reducing():
		return 1.0
	case op == collective.SendRecv:
		return 0.35
	default:
		return 0.8
	}
}

// pressure returns the contention collective kernels exert on device dev:
// stolen SMs, stolen HBM bandwidth (bytes/s) and the issue-serialization
// fraction.
func (c *Cluster) pressure(dev int) (smStolen, hbmStolen, serialize float64) {
	for _, t := range c.comms[dev] {
		cd := t.Payload().(collective.Desc)
		sm := float64(collective.SMOccupancy(cd, c.g))
		w := c.g.Contention.SerializeFrac * serializeWeight(cd.Op)
		if cd.Waiting() {
			// A spinning kernel holds its launch footprint but issues
			// little traffic; it steals fewer resources than an active
			// transfer.
			sm = sm / 2
			w = w / 2
		} else {
			wireRate := cd.WireBW(c.fabric)
			hbmStolen += collective.HBMDraw(cd, c.g, wireRate)
		}
		smStolen += sm
		if w > serialize {
			serialize = w
		}
	}
	if max := float64(c.g.SMs) * 0.6; smStolen > max {
		smStolen = max
	}
	return smStolen, hbmStolen, serialize
}

// deviceActivity estimates the power-model activity of device dev when its
// compute tasks run at frequency factor f under the given contention.
func (c *Cluster) deviceActivity(dev int, f, smStolen, hbmStolen, serialize float64) power.Activity {
	var act power.Activity
	for _, t := range c.compute[dev] {
		kd := t.Payload().(kernels.Desc)
		r := kernels.Rate(kd, c.g, f, smStolen, hbmStolen, serialize)
		if n := len(c.compute[dev]); n > 1 {
			r /= float64(n)
		}
		v, m, mem := activityOf(kd, c.g, r, f)
		act.Vec += v
		act.Mat += m
		act.Mem += mem
	}
	commUtil := 0.0
	for _, t := range c.comms[dev] {
		cd := t.Payload().(collective.Desc)
		if cd.Waiting() {
			continue
		}
		wireRate := cd.WireBW(c.fabric)
		commUtil += wireRate / c.g.UniLinkBW()
		act.Mem += collective.HBMDraw(cd, c.g, wireRate) / c.g.MemBW()
	}
	act.Comm = commUtil
	act.Surge = surgeActivity(act)
	return act.Clamped()
}

// surgeMatWeight makes matrix-unit activity contribute disproportionately
// to the overlap power surge: tensor-core current transients are the worst
// case for the voltage regulators, which is how the paper's Fig. 11 sees
// TF32 peak power exceed the FP32 baseline on large models.
const surgeMatWeight = 2.5

// surgeActivity derives the compute∧communication co-activity that drives
// the transient surge component.
func surgeActivity(act power.Activity) float64 {
	computeAct := act.Vec + surgeMatWeight*act.Mat
	if computeAct <= 0.05 || act.Comm <= 0.05 {
		return 0
	}
	return math.Min(computeAct, act.Comm)
}

// solveFreqIdleComm resolves frequency for a device running only
// communication (or nothing).
func (c *Cluster) solveFreqIdleComm(dev int) float64 {
	act := c.deviceActivity(dev, 1, 0, 0, 0)
	return power.SolveFreq(c.g, act, c.cfg.Caps)
}

// activityOf converts a kernel running at rate r (work units/s) under
// frequency factor f into datapath and memory activities. Issue activity
// is normalized to the throughput available at the current frequency, so
// a cap-throttled but fully occupied datapath still shows high activity.
// Fused descriptors split their FLOPs between datapaths by part.
func activityOf(d kernels.Desc, g *hw.GPUSpec, r, f float64) (vec, mat, mem float64) {
	if r <= 0 || math.IsInf(r, 1) || f <= 0 {
		return 0, 0, 0
	}
	w := kernels.Work(d)
	if w <= 0 {
		return 0, 0, 0
	}
	dur := w / r
	vecF, matF := d.FLOPsByPath()
	if vecF > 0 {
		if peak := peakFor(g, precision.Vector, d.Format); peak > 0 {
			vec = (vecF / dur) / (peak * f)
		}
	}
	if matF > 0 {
		if peak := peakFor(g, precision.Matrix, d.Format); peak > 0 {
			mat = (matF / dur) / (peak * f)
		}
	}
	if vec > 1 {
		vec = 1
	}
	if mat > 1 {
		mat = 1
	}
	if d.Bytes > 0 {
		mem = (d.Bytes / dur) / g.MemBW()
		if mem > 1 {
			mem = 1
		}
	}
	return vec, mat, mem
}

// peakFor returns the peak throughput of a datapath in the given format,
// falling back to FP32 when the exact format is not tabulated (fused tasks
// mix formats across parts).
func peakFor(g *hw.GPUSpec, path precision.Datapath, f precision.Format) float64 {
	if p := g.PeakFLOPS(path, f); p > 0 {
		return p
	}
	return g.PeakFLOPS(path, precision.FP32)
}

// Segment implements sim.Observer: it integrates per-GPU power over one
// constant-rate segment. The engine calls Segment immediately after
// Rates with the identical running set, so the device partition computed
// there is reused instead of rebuilt.
func (c *Cluster) Segment(t0, t1 float64, running []*sim.Task) {
	if !c.partFresh || c.partLen != len(running) {
		c.partition(running)
	}
	c.partFresh = false
	c.eachDevice(func(dev int) {
		var w float64
		if len(c.compute[dev]) == 0 && len(c.comms[dev]) == 0 && c.freq[dev] == c.idleFreq {
			w = c.idleW
		} else {
			w = power.Instant(c.g, c.segmentActivity(dev), c.freq[dev])
		}
		c.samplers[dev].Add(t0, t1, w)
		if c.traces != nil {
			c.traces[dev].Add(t0, t1, w)
		}
	})
}

// segmentActivity reads activity directly from the rates the platform
// assigned for the current segment.
func (c *Cluster) segmentActivity(dev int) power.Activity {
	var act power.Activity
	f := c.freq[dev]
	for _, t := range c.compute[dev] {
		kd := t.Payload().(kernels.Desc)
		v, m, mem := activityOf(kd, c.g, t.Rate(), f)
		act.Vec += v
		act.Mat += m
		act.Mem += mem
	}
	for _, t := range c.comms[dev] {
		cd := t.Payload().(collective.Desc)
		wireRate := t.Rate()
		act.Comm += wireRate / c.g.UniLinkBW()
		act.Mem += collective.HBMDraw(cd, c.g, wireRate) / c.g.MemBW()
	}
	computeAct := act.Vec + act.Mat
	if computeAct > 0.05 && act.Comm > 0.05 {
		act.Surge = math.Min(computeAct, act.Comm)
	}
	return act.Clamped()
}
