package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"overlapsim/internal/core"
	"overlapsim/internal/model"
)

// expectation is the output of one workload recorded from the reference
// commit: a hash per distinct config and a digest over all of them.
type expectation struct {
	Digest string            `json:"digest"`
	Points map[string]string `json:"points"`
	// Aggregates are headline numbers derived from the results (the
	// paper-grid's MainGrid aggregates and their gap to the paper).
	Aggregates map[string]float64 `json:"aggregates,omitempty"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpectations() (map[string]*expectation, error) {
	var exps map[string]*expectation
	if err := json.Unmarshal(expectedJSON, &exps); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return exps, nil
}

// resultHash is the content hash of a result's canonical JSON encoding:
// every simulated number, engine counter and power statistic.
func resultHash(res *core.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// oomHash names an expected out-of-memory rejection by its exact figures.
func oomHash(oom *model.ErrOOM) string {
	return fmt.Sprintf("oom %s %s %.0f %.0f", oom.Model, oom.GPU, oom.NeedBytes, oom.HaveBytes)
}

// digest hashes a set of per-config hashes in fingerprint order.
func digest(points map[string]string) string {
	keys := make([]string, 0, len(points))
	for k := range points {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s\n", k, points[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// outputs collects the hashes a run produced and compares them with the
// recorded expectation.
type outputs struct {
	want *expectation // nil when recording
	got  map[string]string
	bad  []string
}

func newOutputs(want *expectation) *outputs {
	return &outputs{want: want, got: make(map[string]string)}
}

// check records the hash of one op's output and reports whether it
// matches the recorded one.
func (o *outputs) check(key, hash string) bool {
	if prev, ok := o.got[key]; ok && prev != hash {
		o.bad = append(o.bad, fmt.Sprintf("%s: output changed between ops", short(key)))
		return false
	}
	o.got[key] = hash
	if o.want == nil {
		return true
	}
	if w := o.want.Points[key]; w != hash {
		o.bad = append(o.bad, fmt.Sprintf("%s: got %s, recorded %s", short(key), short(hash), short(w)))
		return false
	}
	return true
}

// checkDigest compares the digest over every output seen with the
// recorded one.
func (o *outputs) checkDigest() bool {
	if o.want == nil {
		return true
	}
	if d := digest(o.got); d != o.want.Digest {
		o.bad = append(o.bad, fmt.Sprintf("digest %s, recorded %s", short(d), short(o.want.Digest)))
		return false
	}
	return true
}

// checkAggregate compares a derived headline number with the recorded one.
func (o *outputs) checkAggregate(name string, v float64) bool {
	if o.want == nil {
		return true
	}
	w, ok := o.want.Aggregates[name]
	if !ok || w != v || math.IsNaN(v) {
		o.bad = append(o.bad, fmt.Sprintf("%s = %v, recorded %v", name, v, w))
		return false
	}
	return true
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// recordExpectation merges one workload's outputs into the expectation
// file at path.
func recordExpectation(path, workload string, got map[string]string, aggs map[string]float64) error {
	exps := make(map[string]*expectation)
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &exps); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	exps[workload] = &expectation{Digest: digest(got), Points: got, Aggregates: aggs}
	b, err := json.MarshalIndent(exps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// reportChecks prints the failed output checks to stderr.
func reportChecks(o *outputs) {
	if len(o.bad) == 0 {
		return
	}
	n := len(o.bad)
	shown := o.bad[:min(n, 10)]
	fmt.Fprintf(os.Stderr, "perfbench: %d output check(s) failed:\n  %s\n", n, strings.Join(shown, "\n  "))
}
