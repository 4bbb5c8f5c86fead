package main

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"overlapsim/internal/core"
	"overlapsim/internal/sweep"
)

// startCache wraps the cache a sweep.Runner is given and notes when each
// key is first looked up — the start of that point's op, right after its
// fingerprint — so the runner's OnPoint callback can close the op.
type startCache struct {
	sweep.Cache
	mu    sync.Mutex
	start map[string]time.Time
}

func newStartCache() *startCache {
	return &startCache{Cache: sweep.NewMemCache(), start: make(map[string]time.Time)}
}

func (c *startCache) Get(key string) (*core.Result, bool) {
	now := time.Now()
	c.mu.Lock()
	if _, ok := c.start[key]; !ok {
		c.start[key] = now
	}
	c.mu.Unlock()
	return c.Cache.Get(key)
}

func (c *startCache) started(key string) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.start[key]
}

// timedCache wraps a cache backend inside the service with spans around
// Get and Put and hit counts. A Get miss followed by a Put of the same
// key brackets the simulation the miss caused; that interval is recorded
// as a sim span when simName is set.
type timedCache struct {
	inner                     sweep.Cache
	rec                       *recorder
	getName, putName, simName string
	gets, hits                atomic.Int64

	mu     sync.Mutex
	missAt map[string]time.Duration
}

func newTimedCache(inner sweep.Cache, rec *recorder, getName, putName, simName string) *timedCache {
	return &timedCache{inner: inner, rec: rec, getName: getName, putName: putName, simName: simName,
		missAt: make(map[string]time.Duration)}
}

func (c *timedCache) Get(key string) (*core.Result, bool) {
	id := c.rec.begin(c.getName, -1, 0, key)
	res, ok := c.inner.Get(key)
	c.rec.end(id)
	c.gets.Add(1)
	if ok {
		c.hits.Add(1)
	} else if c.simName != "" {
		c.mu.Lock()
		if _, seen := c.missAt[key]; !seen {
			c.missAt[key] = c.rec.now()
		}
		c.mu.Unlock()
	}
	return res, ok
}

func (c *timedCache) Put(key string, res *core.Result) error {
	if c.simName != "" {
		c.mu.Lock()
		at, ok := c.missAt[key]
		delete(c.missAt, key)
		c.mu.Unlock()
		if ok {
			c.rec.add(span{Name: c.simName, Start: at, End: c.rec.now(), Parent: -1, Key: key})
		}
	}
	id := c.rec.begin(c.putName, -1, 0, key)
	err := c.inner.Put(key, res)
	c.rec.end(id)
	return err
}

func (c *timedCache) hitRatio() float64 {
	if g := c.gets.Load(); g > 0 {
		return float64(c.hits.Load()) / float64(g)
	}
	return 0
}

// opHeader carries the benchmark's op ID on each request so the handler
// span can be tied to the client's view of the same op.
const opHeader = "X-Perfbench-Op"

// timedHandler records a span around every /v1/experiments request.
type timedHandler struct {
	next http.Handler
	rec  *recorder
	// keys maps op IDs to the fingerprint of the config they send.
	keys func(op int64) string
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/experiments" {
		h.next.ServeHTTP(w, r)
		return
	}
	op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	id := h.rec.begin("service.handler", -1, op, h.keys(op))
	h.next.ServeHTTP(w, r)
	h.rec.end(id)
}
