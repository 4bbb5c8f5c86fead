package main

import (
	"math/rand/v2"
	"sort"
	"time"

	"overlapsim/internal/sweep"
)

// The serve-mix request generator: a seeded open-loop Poisson schedule
// of POST /v1/experiments requests.

// serveRate is the fixed offered load in requests per second: half of the
// about 400/s at which the reference commit, driven through two client
// connections on two cores, keeps its windowed p99 under 25 ms.
const serveRate = 200

// kind is a request's role in the mix.
type kind uint8

const (
	kindHot  kind = iota // a config already served, to replica A
	kindCold             // a first-time config, to replica A
	kindPair             // a first-time config sent twice at once, to A
	kindPeer             // a hot config to replica B, which asks A
	numKinds
)

var kindNames = [numKinds]string{"hot", "cold", "pair", "peer"}

// mixShares are the shares of arrivals per kind.
var mixShares = [numKinds]float64{0.80, 0.10, 0.03, 0.07}

// hotSet is the fixed set of configs hot requests repeat, in Zipf rank
// order: single-node paper configs plus three 64-node×8 configs whose
// responses are about 290 KB.
func hotSet() []sweep.Experiment {
	var out []sweep.Experiment
	for _, gpu := range []string{"H100", "MI250", "A100", "MI210"} {
		for _, m := range []string{"GPT-3 XL", "GPT-3 2.7B"} {
			for _, par := range []string{"fsdp", "pp"} {
				for _, bs := range []int{8, 16} {
					out = append(out, sweep.Experiment{GPU: gpu, GPUCount: 4, Model: m, Parallelism: par, Batch: bs})
				}
			}
		}
	}
	big := []sweep.Experiment{
		{GPU: "H100", GPUCount: 8, Nodes: 64, Model: "GPT-3 XL", Parallelism: "fsdp", Batch: 512},
		{GPU: "MI250", GPUCount: 8, Nodes: 64, Model: "GPT-3 XL", Parallelism: "fsdp", Batch: 512},
		{GPU: "H100", GPUCount: 8, Nodes: 64, Model: "GPT-3 XL", Parallelism: "ddp", Batch: 512},
	}
	// Ranks 12, 24 and 35 give the big configs about 4% of hot traffic.
	for i, r := range []int{11, 23, 34} {
		out = append(out[:r], append([]sweep.Experiment{big[i]}, out[r:]...)...)
	}
	return out
}

// coldFamilies are the (GPU, model, strategy) triples first-time configs
// come from. The data-parallel strategies keep cold costs within a few
// milliseconds of each other; A100 with GPT-3 2.7B under DDP does not fit
// and is left out.
var coldFamilies = func() [][3]string {
	var out [][3]string
	for _, gpu := range []string{"H100", "A100", "MI250", "MI210"} {
		for _, m := range []string{"GPT-3 XL", "GPT-3 2.7B"} {
			for _, par := range []string{"fsdp", "ddp"} {
				if gpu == "A100" && m == "GPT-3 2.7B" && par == "ddp" {
					continue
				}
				out = append(out, [3]string{gpu, m, par})
			}
		}
	}
	return out
}()

// coldCaps is the number of power caps per family: 200 W to 499.75 W in
// quarter-watt steps, each a distinct fingerprint of similar cost.
const coldCaps = 1200

func coldSpaceSize() int { return len(coldFamilies) * coldCaps }

// coldExperiment decodes an index of the cold space.
func coldExperiment(i int) sweep.Experiment {
	f := coldFamilies[i/coldCaps]
	return sweep.Experiment{GPU: f[0], GPUCount: 4, Model: f[1], Parallelism: f[2], Batch: 8,
		PowerCapW: 200 + 0.25*float64(i%coldCaps)}
}

// arrival is one scheduled request (two for a pair).
type arrival struct {
	Due  time.Duration
	Kind kind
	Exp  sweep.Experiment
}

// generator draws arrivals from one seeded stream.
type generator struct {
	rng  *rand.Rand
	at   time.Duration
	hot  []sweep.Experiment
	zipf []float64 // cumulative Zipf(s=1) weights over hot ranks
	mix  [numKinds]float64
	used map[int]bool
}

func newGenerator(seed uint64) *generator {
	g := &generator{rng: rand.New(rand.NewPCG(seed, seedStream^1)), hot: hotSet(), used: make(map[int]bool)}
	sum := 0.0
	for r := range g.hot {
		sum += 1 / float64(r+1)
		g.zipf = append(g.zipf, sum)
	}
	acc := 0.0
	for k, s := range mixShares {
		acc += s
		g.mix[k] = acc
	}
	return g
}

func (g *generator) hotDraw() sweep.Experiment {
	u := g.rng.Float64() * g.zipf[len(g.zipf)-1]
	return g.hot[sort.SearchFloat64s(g.zipf, u)]
}

// coldDraw returns a config the generator has not drawn before.
func (g *generator) coldDraw() sweep.Experiment {
	for {
		i := g.rng.IntN(coldSpaceSize())
		if !g.used[i] {
			g.used[i] = true
			return coldExperiment(i)
		}
	}
}

// next returns the following arrival of the Poisson schedule.
func (g *generator) next() arrival {
	g.at += time.Duration(g.rng.ExpFloat64() / serveRate * float64(time.Second))
	a := arrival{Due: g.at}
	u := g.rng.Float64()
	for a.Kind = 0; a.Kind < numKinds-1 && u >= g.mix[a.Kind]; a.Kind++ {
	}
	switch a.Kind {
	case kindHot, kindPeer:
		a.Exp = g.hotDraw()
	default:
		a.Exp = g.coldDraw()
	}
	return a
}

// schedule returns the arrivals due within d of the generator's current
// time, with due times relative to that start.
func (g *generator) schedule(d time.Duration) []arrival {
	start := g.at
	var out []arrival
	for {
		a := g.next()
		a.Due -= start
		if a.Due > d {
			return out
		}
		out = append(out, a)
	}
}
