package overlapsim_bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"overlapsim/internal/core"
	"overlapsim/internal/exec"
	"overlapsim/internal/hw"
	"overlapsim/internal/model"
	"overlapsim/internal/precision"
)

// symTestConfig is a small multi-node shape every strategy can build:
// 2 nodes × 4 GPUs, GPT-3 XL, one measured iteration.
func symTestConfig(parallelism core.Parallelism) core.Config {
	return core.Config{
		System:      hw.NewMultiNode(hw.H100(), 4, 2),
		Model:       model.GPT3XL(),
		Parallelism: parallelism,
		Batch:       8,
		Format:      precision.FP16,
		MatrixUnits: true,
		Iterations:  1,
		Warmup:      0,
	}
}

// planDigest hashes every task's (name, start, end) of a finished plan.
func planDigest(t *testing.T, plan *exec.Plan) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	for _, task := range plan.Engine.Tasks() {
		h.Write([]byte(task.Name()))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(task.Start()))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(task.End()))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStrategySymmetryClasses pins the collapse behavior per strategy:
// the data-parallel strategies expose rank symmetry the runner actually
// exploits, while pipeline stages (different layers per device) are
// declared asymmetric and never probed.
func TestStrategySymmetryClasses(t *testing.T) {
	cases := []struct {
		parallelism core.Parallelism
		wantGhosts  bool
	}{
		{"ddp", true},
		{"fsdp", true},
		{"tp", true},
		{"pipeline", false},
	}
	for _, tc := range cases {
		t.Run(string(tc.parallelism), func(t *testing.T) {
			plan, err := core.BuildPlan(symTestConfig(tc.parallelism), exec.Overlapped)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Run(); err != nil {
				t.Fatal(err)
			}
			if got := plan.GhostTasks() > 0; got != tc.wantGhosts {
				t.Fatalf("GhostTasks() = %d, want ghosts: %v (classes %v)",
					plan.GhostTasks(), tc.wantGhosts, plan.CollapsedClasses())
			}
			for _, c := range plan.CollapsedClasses() {
				if len(c.Members) < 2 {
					t.Fatalf("collapsed singleton class %v", c.Members)
				}
			}
		})
	}
}

// TestCollapseMatchesFullRun is the end-to-end differential: for every
// strategy, the collapsed fast path must reproduce the full simulation's
// schedule digest and measurements bit for bit.
func TestCollapseMatchesFullRun(t *testing.T) {
	for _, parallelism := range []core.Parallelism{"ddp", "fsdp", "tp", "pipeline"} {
		t.Run(string(parallelism), func(t *testing.T) {
			full, err := core.BuildPlan(symTestConfig(parallelism), exec.Overlapped)
			if err != nil {
				t.Fatal(err)
			}
			full.NoCollapse = true
			if err := full.Run(); err != nil {
				t.Fatal(err)
			}
			fast, err := core.BuildPlan(symTestConfig(parallelism), exec.Overlapped)
			if err != nil {
				t.Fatal(err)
			}
			if err := fast.Run(); err != nil {
				t.Fatal(err)
			}
			if a, b := planDigest(t, full), planDigest(t, fast); a != b {
				t.Fatalf("schedule digests diverged: full %s vs collapsed %s (ghosts=%d)",
					a, b, fast.GhostTasks())
			}
			mFull, err := full.MeasuredIterations()
			if err != nil {
				t.Fatal(err)
			}
			mFast, err := fast.MeasuredIterations()
			if err != nil {
				t.Fatal(err)
			}
			if len(mFull) != len(mFast) {
				t.Fatalf("iteration counts diverged: %d vs %d", len(mFull), len(mFast))
			}
			for i := range mFull {
				if mFull[i] != mFast[i] {
					t.Fatalf("iteration %d measurements diverged:\nfull %+v\nfast %+v", i, mFull[i], mFast[i])
				}
			}
		})
	}
}

// TestJitterDisablesCollapse: a jittered cluster is nondeterministic per
// device, so the runner must simulate every rank for real.
func TestJitterDisablesCollapse(t *testing.T) {
	cfg := symTestConfig("fsdp")
	cfg.JitterSigma = 0.02
	cfg.Seed = 7
	plan, err := core.BuildPlan(cfg, exec.Overlapped)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Run(); err != nil {
		t.Fatal(err)
	}
	if plan.GhostTasks() != 0 {
		t.Fatalf("jittered plan collapsed %d tasks", plan.GhostTasks())
	}
}
