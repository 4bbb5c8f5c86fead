package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a tail percentile for it to
// be reported: with fewer, the "p99" is one or two unlucky samples.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). A
// tail percentile (q above the median) is refused unless at least
// minTail samples lie beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile %g of no samples", q)
	}
	k := int(math.Ceil(q * float64(n))) // 1-based rank
	k = min(max(k, 1), n)
	if q > 0.5 && n-k < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, n-k, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], nil
}

// median is the 0.5 nearest-rank percentile; it needs one sample.
func median(xs []float64) float64 {
	v, err := percentile(xs, 0.5)
	if err != nil {
		return math.NaN()
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// totalAlloc is the cumulative heap bytes the process has allocated.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// resetPeakRSS frees what the heap no longer needs and restarts the
// kernel's resident high-water mark, so that peakRSSMB covers only the
// phase that follows.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Without /proc the mark is never reset and peakRSSMB falls back to
	// the whole process's maximum.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident high-water mark since the last reset (VmHWM),
// or the process's getrusage maxrss where /proc cannot be read.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metric is one named measurement.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// Note replaces the value in the text report when the metric does
	// not apply to the workload.
	Note string
}

// runReport is what a workload run produces.
type runReport struct {
	Attempted, Failed int
	// Correct is false when any output check failed.
	Correct bool
	Metrics []metric
}

func (r *runReport) add(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v})
}

// na records a named metric the workload does not measure, with why.
func (r *runReport) na(name, unit, why string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Note: why})
}

func (r *runReport) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// fail records n failed ops.
func (r *runReport) fail(n int) {
	r.Failed += n
	if n > 0 {
		r.Correct = false
	}
}
