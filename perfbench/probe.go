package main

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// The machine the benchmark was tuned on (a 2-vCPU VM on a shared host)
// runs the same code at speeds up to 2× apart for minutes at a time: a
// fixed single-threaded loop took 0.28 s in one stretch and 0.55 s in
// another, with as much CPU time as wall time, so the slowdown is in how
// fast instructions retire, not in lost time slices. The timed metrics
// of one run then say as much about the host's stretch as about the
// program.
//
// The host probe is a fixed piece of Go work that shares no code with
// the simulator: sorting, hashing into a map and float arithmetic on
// every core. A run samples it whenever the program is idle between
// units of timed work (after each set-up, grid pass and serve window)
// and reports its timed metrics in reference time: host time ×
// probeRefMs / the run's median probe sample. A change to the program
// moves host time and not the probe, so it moves the reported figure in
// full; a slow stretch of the host moves both and cancels. The host
// times and the factor are printed beside the reported figures.

// probeRefMs fixes the unit: one reference millisecond is the time the
// host takes for 1/probeRefMs of a probe sample. Samples on the reference
// machine ranged from about 9 to 19 ms.
const probeRefMs = 10.0

// hostSpeed holds the probe's buffers, allocated once so that a sample
// does not allocate, and the run's samples.
type hostSpeed struct {
	keys, sorted [][]float64
	maps         []map[uint32]uint32
	sums         []float64 // one per core, so the work stays live
	samples      []float64 // ms
}

func newHostSpeed(procs int) *hostSpeed {
	h := &hostSpeed{sums: make([]float64, procs)}
	for range procs {
		h.keys = append(h.keys, make([]float64, 1<<14))
		h.sorted = append(h.sorted, make([]float64, 1<<14))
		h.maps = append(h.maps, make(map[uint32]uint32, 1<<12))
	}
	return h
}

// sample runs the probe on every core three times and records the
// median time.
func (h *hostSpeed) sample() {
	var ds [3]time.Duration
	for i := range ds {
		t := time.Now()
		var wg sync.WaitGroup
		for g := range h.keys {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h.work(g)
			}()
		}
		wg.Wait()
		ds[i] = time.Since(t)
	}
	slices.Sort(ds[:])
	h.samples = append(h.samples, ms(ds[1]))
}

// work is one core's share of the probe: fill, sort, hash and sum.
func (h *hostSpeed) work(g int) {
	keys, s, m := h.keys[g], h.sorted[g], h.maps[g]
	x := uint64(g) + 1
	for i := range keys {
		x = x*6364136223846793005 + 1442695040888963407
		keys[i] = float64(x>>11) / (1 << 53)
	}
	copy(s, keys)
	slices.Sort(s)
	clear(m)
	for i, k := range keys {
		m[uint32(k*(1<<20))&0xfff] += uint32(i)
	}
	acc := 0.0
	for range 32 {
		for i, k := range s {
			acc = acc*0.999 + k*float64(m[uint32(i)&0xfff]&7)
		}
	}
	h.sums[g] += acc
}

// factor converts the run's host times into reference time.
func (h *hostSpeed) factor() float64 {
	return probeRefMs / median(h.samples)
}

// report prints the probe samples and the factor.
func (h *hostSpeed) report() {
	fmt.Printf("host probe: %d samples from %.2f to %.2f ms, median %.2f ms, reference factor %.4f\n",
		len(h.samples), slices.Min(h.samples), slices.Max(h.samples), median(h.samples), h.factor())
}
