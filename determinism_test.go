package overlapsim_bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"overlapsim/internal/core"
	"overlapsim/internal/exec"
	"overlapsim/internal/hw"
	"overlapsim/internal/model"
	"overlapsim/internal/precision"
	"overlapsim/internal/workload"
)

// The golden differential test pins the engine's numerical output: it
// hashes every task's (name, start, end) across the paper's main grid
// plus a 4-node × 8-GPU FSDP run, and compares the digests against
// testdata/engine_golden.json. Any scheduling or floating-point change —
// however small — flips a digest, so engine refactors must reproduce the
// committed digests bit for bit. Regenerate deliberately with
//
//	go test -run TestGoldenEngineDigests -update-golden
//
// and justify the diff in the commit message.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/engine_golden.json from the current engine")

const goldenPath = "testdata/engine_golden.json"

// goldenEntry is one config's digest in the golden file.
type goldenEntry struct {
	Label  string `json:"label"`
	Digest string `json:"digest"`
}

// goldenMultiNode is the multi-node configuration hashed alongside the
// main grid: the BenchmarkMultiNodeFSDP shape, one measured iteration.
func goldenMultiNode() core.Config {
	return core.Config{
		System:      hw.NewMultiNode(hw.H100(), 8, 4),
		Model:       model.GPT3_13B(),
		Parallelism: "fsdp",
		Batch:       64,
		Format:      precision.FP16,
		MatrixUnits: true,
		Iterations:  1,
		Warmup:      0,
	}
}

func goldenConfigs() []core.Config {
	return append(workload.MainGrid(), goldenMultiNode())
}

// digestConfig runs both execution modes of one config and hashes every
// task's (name, start, end) in creation order. Infeasible configs hash a
// fixed "oom" marker so grid shape changes are still caught; any other
// build or run error fails the caller.
func digestConfig(cfg core.Config) (string, error) {
	h := sha256.New()
	var buf [8]byte
	for _, mode := range []exec.Mode{exec.Overlapped, exec.Sequential} {
		fmt.Fprintf(h, "mode=%d\n", int(mode))
		plan, err := core.BuildPlan(cfg, mode)
		if err != nil {
			var oom *model.ErrOOM
			if errors.As(err, &oom) {
				fmt.Fprintf(h, "oom\n")
				continue
			}
			return "", fmt.Errorf("%s (%v): build: %w", cfg.Label(), mode, err)
		}
		if err := plan.Run(); err != nil {
			return "", fmt.Errorf("%s (%v): run: %w", cfg.Label(), mode, err)
		}
		for _, t := range plan.Engine.Tasks() {
			h.Write([]byte(t.Name()))
			h.Write([]byte{0})
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(t.Start()))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(t.End()))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// digestConfigs runs the configs on a worker pool (each point is an
// independent simulation, so parallelism cannot affect the digests).
func digestConfigs(t *testing.T, cfgs []core.Config) []goldenEntry {
	t.Helper()
	entries := make([]goldenEntry, len(cfgs))
	errs := make([]error, len(cfgs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				d, err := digestConfig(cfgs[i])
				entries[i] = goldenEntry{Label: cfgs[i].Label(), Digest: d}
				errs[i] = err
			}
		}()
	}
	for i := range cfgs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return entries
}

// TestGoldenEngineDigests is the safety net for engine refactors: the
// simulated schedules of the whole characterization grid must reproduce
// the committed digests exactly.
func TestGoldenEngineDigests(t *testing.T) {
	cfgs := goldenConfigs()
	if raceEnabled && !*updateGolden {
		// Under the race detector the full grid is ~10× slower and adds no
		// coverage beyond the non-race run; keep a deterministic subset
		// plus the multi-node config as a smoke check.
		var sub []core.Config
		for i := 0; i < len(cfgs); i += 16 {
			sub = append(sub, cfgs[i])
		}
		if last := cfgs[len(cfgs)-1]; len(sub) == 0 || sub[len(sub)-1].Label() != last.Label() {
			sub = append(sub, last)
		}
		cfgs = sub
	}
	got := digestConfigs(t, cfgs)

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}

	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	byLabel := make(map[string]string, len(want))
	for _, e := range want {
		byLabel[e.Label] = e.Digest
	}
	for _, e := range got {
		wantDigest, ok := byLabel[e.Label]
		if !ok {
			t.Errorf("%s: no golden digest (grid changed? regenerate with -update-golden)", e.Label)
			continue
		}
		if e.Digest != wantDigest {
			t.Errorf("%s: engine output changed:\n  got  %s\n  want %s", e.Label, e.Digest, wantDigest)
		}
	}
	if !raceEnabled && len(got) != len(want) {
		t.Errorf("digest count %d != golden count %d", len(got), len(want))
	}
}

// TestGoldenRunTwiceIdentical runs the multi-node config twice and
// demands identical digests — determinism of a single engine build,
// independent of the committed golden file.
func TestGoldenRunTwiceIdentical(t *testing.T) {
	cfg := goldenMultiNode()
	a, err := digestConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := digestConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two runs of the same config diverged: %s vs %s", a, b)
	}
}

// resultPinConfig is a multi-node FSDP shape large enough to cross the
// NIC tier: 8 nodes × 8 H100, GPT-3 XL, one measured iteration after the
// default warm-up, so the graph contains an iteration barrier.
func resultPinConfig() core.Config {
	return core.Config{
		System:      hw.NewMultiNode(hw.H100(), 8, 8),
		Model:       model.GPT3XL(),
		Parallelism: "fsdp",
		Batch:       64,
		Format:      precision.FP16,
		MatrixUnits: true,
		Iterations:  1,
		Warmup:      0,
	}
}

// resultPinDigest is the SHA-256 of json.Marshal(core.Result) for
// resultPinConfig. Unlike the golden digests, which cover only task
// timelines, it also pins power, Eq. 1–5 metrics and both modes'
// engine_stats (epochs, rechecks, admissions, arena usage), so a plan
// builder change that claims byte-identical output must keep it.
const resultPinDigest = "2379952cd474b65b35c76b5cc644ec5b42ce79ec0ba817637f93be02d0d7d165"

// TestResultBytesPinned checks that a full multi-node characterization
// encodes to exactly the pinned bytes.
func TestResultBytesPinned(t *testing.T) {
	res, err := core.Run(context.Background(), resultPinConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != resultPinDigest {
		t.Errorf("result bytes changed:\n  got  %s\n  want %s\nengine_stats: overlapped %+v, sequential %+v",
			got, resultPinDigest, res.Overlapped.Engine, res.Sequential.Engine)
	}
}
