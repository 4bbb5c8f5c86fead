package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"overlapsim/internal/core"
	"overlapsim/internal/report"
	"overlapsim/internal/service"
	"overlapsim/internal/store"
	"overlapsim/internal/sweep"
	"overlapsim/internal/telemetry"
)

// warmupArrivals is how many generator arrivals set-up sends, closed
// loop, after every hot config has been served once.
const warmupArrivals = 200

// replicas are two overlapd servers on loopback listeners: A with a
// memory cache, and B whose only cache is A, through the peer protocol.
type replicas struct {
	aURL, bURL string
	srvs       []*http.Server
	svcs       []*service.Server
	wg         sync.WaitGroup

	// Set when traced.
	aCache, bPeer *timedCache
}

func startReplicas(procs int, rec *recorder, keyOf func(int64) string) (*replicas, error) {
	r := &replicas{}
	mem := sweep.NewMemCache()
	var aCache sweep.Cache = mem
	if rec != nil {
		r.aCache = newTimedCache(mem, rec, "sweep.cache_get", "sweep.cache_put", "sweep.sim")
		aCache = r.aCache
	}
	var err error
	if r.aURL, err = r.serve(service.New(service.Options{Cache: aCache, LocalCache: mem, Workers: procs}), rec, keyOf); err != nil {
		return nil, err
	}
	peer, err := store.NewHTTPCache([]string{r.aURL}, nil)
	if err != nil {
		r.close()
		return nil, err
	}
	var bCache sweep.Cache = peer
	if rec != nil {
		r.bPeer = newTimedCache(peer, rec, "store.peer_get", "store.peer_put", "")
		bCache = r.bPeer
	}
	if r.bURL, err = r.serve(service.New(service.Options{Cache: bCache, Workers: procs}), rec, keyOf); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *replicas) serve(svc *service.Server, rec *recorder, keyOf func(int64) string) (string, error) {
	r.svcs = append(r.svcs, svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	var h http.Handler = svc
	if rec != nil {
		h = &timedHandler{next: svc, rec: rec, keys: keyOf}
	}
	srv := &http.Server{Handler: h}
	r.srvs = append(r.srvs, srv)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops both servers and waits until they have exited.
func (r *replicas) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range r.srvs {
		_ = s.Shutdown(ctx) // a timeout leaves connections to the process exit
	}
	for _, s := range r.svcs {
		s.Close()
	}
	r.wg.Wait()
}

// request is one scheduled POST, prepared before timing starts.
type request struct {
	due   time.Duration
	kind  kind
	toB   bool
	body  []byte
	key   string
	cfg   core.Config
	first bool // the config's first request (cold and pair kinds)
}

// prepare turns arrivals into requests, fingerprinting each config as
// the handler will. It returns the summed fingerprint time.
func prepare(arrivals []arrival) ([]request, time.Duration, error) {
	var out []request
	var fp time.Duration
	for _, a := range arrivals {
		cfg, err := a.Exp.Config()
		if err != nil {
			return nil, 0, err
		}
		t := time.Now()
		key, err := cfg.Fingerprint()
		fp += time.Since(t)
		if err != nil {
			return nil, 0, err
		}
		body, err := json.Marshal(a.Exp)
		if err != nil {
			return nil, 0, err
		}
		rq := request{due: a.Due, kind: a.Kind, toB: a.Kind == kindPeer, body: body, key: key, cfg: cfg,
			first: a.Kind == kindCold || a.Kind == kindPair}
		out = append(out, rq)
		if a.Kind == kindPair {
			out = append(out, rq)
		}
	}
	return out, fp, nil
}

// outcome is the client's view of one request, as offsets from the
// schedule's start.
type outcome struct {
	start, done time.Duration
	status      int
	body        uint64 // hash of the response body
	size        int
	err         error
}

// client sends requests on at most procs connections and keeps one copy
// of each distinct response body for the output check.
type client struct {
	hc   *http.Client
	seed maphash.Seed

	mu     sync.Mutex
	bodies map[uint64][]byte
}

func newClient(procs int) *client {
	return &client{
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: procs, MaxConnsPerHost: procs}},
		seed:   maphash.MakeSeed(),
		bodies: make(map[uint64][]byte),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(ctx context.Context, url string, rq *request, op int64, buf *bytes.Buffer) outcome {
	var o outcome
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/experiments", bytes.NewReader(rq.body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	resp, err := c.hc.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	o.status, o.size, o.err = resp.StatusCode, buf.Len(), err
	o.body = maphash.Bytes(c.seed, buf.Bytes())
	c.mu.Lock()
	if _, ok := c.bodies[o.body]; !ok {
		c.bodies[o.body] = bytes.Clone(buf.Bytes())
	}
	c.mu.Unlock()
	return o
}

// drive sends the requests from procs workers. Open loop, each request is
// handed to a worker at its due time, or as soon as one is free if it is
// late, with the first request due at once; closed loop, as soon as a
// worker is free. Outcome times are on the schedule's clock.
func (c *client) drive(ctx context.Context, r *replicas, reqs []request, procs int, openLoop bool, opBase int64) []outcome {
	out := make([]outcome, len(reqs))
	idx := make(chan int)
	t0 := time.Now()
	if openLoop && len(reqs) > 0 {
		t0 = t0.Add(-reqs[0].due)
	}
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range idx {
				url := r.aURL
				if reqs[i].toB {
					url = r.bURL
				}
				start := time.Since(t0)
				o := c.do(ctx, url, &reqs[i], opBase+int64(i), &buf)
				o.start, o.done = start, time.Since(t0)
				out[i] = o
			}
		}()
	}
dispatch:
	for i := range reqs {
		if openLoop {
			if wait := time.Until(t0.Add(reqs[i].due)); wait > 0 {
				time.Sleep(wait)
			}
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return out
}

// servePhase is one measured phase: its own replicas, warmed, then the
// timed schedule.
type servePhase struct {
	reqs  []request
	outs  []outcome
	fp    time.Duration // summed fingerprint time while preparing
	alloc uint64
	rec   *recorder
	r     *replicas // nil once the phase has run
	dur   time.Duration
	// The traced phase's cache wrappers outlive its replicas.
	aCache, bPeer *timedCache
	waiters       float64       // singleflight waiters while the phase ran
	from          time.Duration // recorder offset at which the phase began
}

// setupServe starts fresh replicas, serves every hot config once, sends
// the generator's warm-up arrivals and prepares the timed schedule.
func setupServe(ctx context.Context, o options, c *client, rec *recorder) (*servePhase, error) {
	ph := &servePhase{rec: rec}
	gen := newGenerator(o.seed)
	keyOf := func(op int64) string {
		if op >= 0 && op < int64(len(ph.reqs)) {
			return ph.reqs[op].key
		}
		return ""
	}
	r, err := startReplicas(o.procs, rec, keyOf)
	if err != nil {
		return nil, err
	}
	ph.r = r
	// Every hot config is served, and in the cache, before the warm-up
	// arrivals start: otherwise a peer request for a hot config still
	// simulating on A misses and simulates again on B.
	var hot, warm []arrival
	for _, e := range gen.hot {
		hot = append(hot, arrival{Kind: kindHot, Exp: e})
	}
	for i := 0; i < warmupArrivals; i++ {
		warm = append(warm, gen.next())
	}
	// Warm-up ops carry negative IDs so the handler wrapper files them
	// under no key.
	op := int64(-1)
	for _, as := range [][]arrival{hot, warm} {
		wreqs, _, err := prepare(as)
		if err != nil {
			r.close()
			return nil, err
		}
		op -= int64(len(wreqs))
		for _, w := range c.drive(ctx, r, wreqs, o.procs, false, op) {
			if w.err != nil || w.status != http.StatusOK {
				r.close()
				return nil, fmt.Errorf("warm-up request failed: status %d, %v", w.status, w.err)
			}
		}
	}
	if ph.reqs, ph.fp, err = prepare(gen.schedule(o.phase())); err != nil {
		r.close()
		return nil, err
	}
	return ph, nil
}

// begin starts the phase's measurement: what set-up recorded is not the
// workload, so spans are cut here and the hit counts restart.
func (ph *servePhase) begin() {
	ph.outs = make([]outcome, len(ph.reqs))
	if ph.rec != nil {
		ph.from = ph.rec.now()
		ph.r.aCache.gets.Store(0)
		ph.r.aCache.hits.Store(0)
		ph.r.bPeer.gets.Store(0)
		ph.r.bPeer.hits.Store(0)
	}
}

// send sends requests lo to hi of the schedule, open loop.
func (ph *servePhase) send(ctx context.Context, o options, c *client, lo, hi int) {
	w0, a0 := flightWaiters(), totalAlloc()
	t := time.Now()
	copy(ph.outs[lo:hi], c.drive(ctx, ph.r, ph.reqs[lo:hi], o.procs, true, int64(lo)))
	ph.dur += time.Since(t)
	ph.alloc += totalAlloc() - a0
	ph.waiters += flightWaiters() - w0
}

// end shuts the replicas down.
func (ph *servePhase) end() {
	ph.aCache, ph.bPeer = ph.r.aCache, ph.r.bPeer
	ph.r.close()
	ph.r = nil
}

// run sends the whole schedule window by window, samples the host probe
// between windows, and shuts the replicas down.
func (ph *servePhase) run(ctx context.Context, o options, c *client, hs *hostSpeed) {
	ph.begin()
	for _, w := range splitWindows(ph.reqs) {
		ph.send(ctx, o, c, w[0], w[1])
		hs.sample()
	}
	ph.end()
}

// splitWindows cuts a schedule into windows of about windowRequests
// requests; both requests of a pair stay in one window.
func splitWindows(reqs []request) [][2]int {
	var windows [][2]int
	n := len(reqs)
	k := max(1, n/windowRequests)
	for w, lo := 0, 0; w < k; w++ {
		hi := (w + 1) * n / k
		for hi < n && hi > lo && reqs[hi].due == reqs[hi-1].due {
			hi++
		}
		if hi <= lo {
			continue
		}
		windows = append(windows, [2]int{lo, hi})
		lo = hi
	}
	return windows
}

// runPaired sends the same schedule to an untraced and a traced phase,
// alternating between them every window, so that each pair of windows
// runs under the same machine conditions; which phase goes first
// alternates from window to window. It returns the windows' bounds.
func runPaired(ctx context.Context, o options, c *client, plain, traced *servePhase) [][2]int {
	plain.begin()
	traced.begin()
	windows := splitWindows(plain.reqs)
	for i, w := range windows {
		first, second := plain, traced
		if i%2 == 1 {
			first, second = traced, plain
		}
		first.send(ctx, o, c, w[0], w[1])
		second.send(ctx, o, c, w[0], w[1])
	}
	plain.end()
	traced.end()
	return windows
}

// experimentBody is the /v1/experiments response.
type experimentBody struct {
	Point   sweep.Point     `json:"point"`
	Summary report.SweepRow `json:"summary"`
}

// verifier checks response bodies against direct core.Run results. It
// keeps what a check compares, not the results themselves.
type verifier struct {
	want map[string]*wantBody // by fingerprint
}

// wantBody is what a correct response for one config contains.
type wantBody struct {
	hash string // resultHash of core.Run's result
	cfg  []byte // the config's JSON
	// rows are the summary rows for a fresh result and a cache hit.
	row, hitRow []byte
}

// expect runs cfg directly, once per key.
func (v *verifier) expect(ctx context.Context, key string, cfg core.Config) (*wantBody, error) {
	if w, ok := v.want[key]; ok {
		return w, nil
	}
	res, err := core.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	w := &wantBody{}
	var errs [4]error
	w.hash, errs[0] = resultHash(res)
	w.cfg, errs[1] = json.Marshal(cfg)
	w.row, errs[2] = json.Marshal(sweep.Row(&sweep.Point{Config: cfg, Res: res}))
	w.hitRow, errs[3] = json.Marshal(sweep.Row(&sweep.Point{Config: cfg, Res: res, CacheHit: true}))
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	v.want[key] = w
	return w, nil
}

// checkBody reports whether a response body is the right answer for key.
func (v *verifier) checkBody(ctx context.Context, body []byte, key string, cfg core.Config) error {
	var got experimentBody
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Point.Key != key {
		return fmt.Errorf("key %s, want %s", short(got.Point.Key), short(key))
	}
	want, err := v.expect(ctx, key, cfg)
	if err != nil {
		return err
	}
	if got.Point.Res == nil {
		return errors.New("no result")
	}
	h, err := resultHash(got.Point.Res)
	if err != nil {
		return err
	}
	if h != want.hash {
		return fmt.Errorf("result %s, core.Run gives %s", short(h), short(want.hash))
	}
	gotCfg, err1 := json.Marshal(got.Point.Config)
	gotRow, err2 := json.Marshal(got.Summary)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	wantRow := want.row
	if got.Point.CacheHit {
		wantRow = want.hitRow
	}
	if !bytes.Equal(gotCfg, want.cfg) || !bytes.Equal(gotRow, wantRow) {
		return errors.New("config or summary row differs from core.Run")
	}
	return nil
}

// check verifies every request of a phase and returns how many failed.
func (ph *servePhase) check(ctx context.Context, c *client, v *verifier, out *outputs) int {
	verdict := make(map[uint64]map[string]error)
	failed := 0
	for i, o := range ph.outs {
		rq := &ph.reqs[i]
		if o.err != nil || o.status != http.StatusOK {
			failed++
			out.bad = append(out.bad, fmt.Sprintf("%s: status %d, %v", rq.cfg.Label(), o.status, o.err))
			continue
		}
		byKey := verdict[o.body]
		if byKey == nil {
			byKey = make(map[string]error)
			verdict[o.body] = byKey
		}
		err, seen := byKey[rq.key]
		if !seen {
			err = v.checkBody(ctx, c.bodies[o.body], rq.key, rq.cfg)
			byKey[rq.key] = err
			if err != nil {
				out.bad = append(out.bad, fmt.Sprintf("%s: %v", rq.cfg.Label(), err))
			}
		}
		if err != nil {
			failed++
		}
	}
	return failed
}

func runServe(ctx context.Context, o options) (*runReport, error) {
	rep := &runReport{Correct: true}
	out := newOutputs(o.want)
	c := newClient(o.procs)
	defer c.close()
	v := &verifier{want: make(map[string]*wantBody)}

	hs := newHostSpeed(o.procs)
	var setups []float64
	setUp := func() (*servePhase, error) {
		runtime.GC() // each set-up starts from the same heap
		t := time.Now()
		ph, err := setupServe(ctx, o, c, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		hs.sample()
		return ph, nil
	}
	firstSetup := time.Now()
	var ph *servePhase
	for i := 0; i < setupsBefore(o.setups); i++ {
		if ph != nil {
			ph.r.close()
		}
		var err error
		if ph, err = setUp(); err != nil {
			return nil, err
		}
	}
	var traced *servePhase
	var windows [][2]int
	var peakMB float64
	if o.trace {
		var err error
		if traced, err = setupServe(ctx, o, c, newRecorder()); err != nil {
			ph.r.close()
			return nil, err
		}
		runtime.GC()
		windows = runPaired(ctx, o, c, ph, traced)
	} else {
		resetPeakRSS()
		ph.run(ctx, o, c, hs)
		peakMB = peakRSSMB()
	}
	for i := setupsBefore(o.setups); i < o.setups; i++ {
		extra, err := setUp()
		if err != nil {
			return nil, err
		}
		extra.r.close()
	}
	setupS := firstSetup.Sub(processStart).Seconds() + median(setups)
	fmt.Printf("set-up seconds: %.3f before, %.3f\n", firstSetup.Sub(processStart).Seconds(), setups)

	// Output checks: the hot set against the recorded digest, every
	// response against a direct core.Run of its config.
	for _, e := range hotSet() {
		cfg, err := e.Config()
		if err != nil {
			return nil, err
		}
		key, err := cfg.Fingerprint()
		if err != nil {
			return nil, err
		}
		w, err := v.expect(ctx, key, cfg)
		if err != nil {
			return nil, err
		}
		if !out.check(key, w.hash) {
			rep.fail(1)
		}
	}
	if !out.checkDigest() {
		rep.fail(1)
	}
	for _, p := range []*servePhase{ph, traced} {
		if p != nil {
			rep.Attempted += len(p.reqs)
			rep.fail(p.check(ctx, c, v, out))
		}
	}
	reportChecks(out)
	if o.record != "" {
		if err := recordExpectation(o.record, "serve-mix", out.got, nil); err != nil {
			return nil, err
		}
	}

	if !o.trace {
		hs.report()
		return rep, serveEndToEnd(rep, ph, setupS, peakMB, hs.factor())
	}
	return rep, serveLayers(ctx, rep, o, ph, traced, windows, v)
}

// latencies returns each request's time from due to response.
func (ph *servePhase) latencies() []float64 {
	out := make([]float64, len(ph.outs))
	for i, o := range ph.outs {
		out[i] = ms(o.done - ph.reqs[i].due)
	}
	return out
}

// windowRequests is the number of consecutive requests each end-to-end
// latency statistic is taken over, enough for a p95 with ten samples
// beyond it; the run reports the median over its windows. The machine the
// benchmark was tuned on (a 2-vCPU VM on a shared host) slows down for
// seconds at a time; a statistic over the whole run moves with every
// such episode, the median over windows only with long ones.
const windowRequests = 200

// serveEndToEnd reports the untraced end-to-end metrics of serve-mix;
// f converts the run's host times into reference time (probe.go).
func serveEndToEnd(rep *runReport, ph *servePhase, setupS, peakMB, f float64) error {
	lat := ph.latencies()
	byKind := make([][]float64, numKinds)
	for i, l := range lat {
		byKind[ph.reqs[i].kind] = append(byKind[ph.reqs[i].kind], l)
	}
	for k, xs := range byKind {
		p90, _ := percentile(xs, 0.9)
		fmt.Printf("kind %-5s %5d requests, p50 %.3f ms, p90 %.3f ms\n", kindNames[k], len(xs), median(xs), p90)
	}
	p95, err := percentile(lat, 0.95)
	if err != nil {
		return err
	}
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return err
	}

	var p50s, p95s, coldP50s []float64
	for _, w := range splitWindows(ph.reqs) {
		var cold []float64
		win := lat[w[0]:w[1]]
		for i := w[0]; i < w[1]; i++ {
			if ph.reqs[i].first {
				cold = append(cold, lat[i])
			}
		}
		q, err := percentile(win, 0.95)
		if err != nil {
			return fmt.Errorf("window p95: %w", err)
		}
		p50s, p95s, coldP50s = append(p50s, median(win)), append(p95s, q), append(coldP50s, median(cold))
	}

	fmt.Printf("host time: setup_s %.6g, op_p50_ms %.6g, op_tail_ms %.6g, cold_p50_ms %.6g\n",
		setupS, median(p50s), median(p95s), median(coldP50s))
	rep.add("setup_s", "s", setupS*f)
	// Open loop, the schedule sets the rate, on the host's clock.
	rep.add("ops_per_s", "1/s", float64(len(ph.outs))/ph.dur.Seconds())
	rep.add("op_p50_ms", "ms", median(p50s)*f)
	rep.add("op_tail_ms", "ms", median(p95s)*f)
	rep.add("op_p95_ms", "ms", p95*f)
	rep.add("op_p99_ms", "ms", p99*f)
	rep.add("cold_p50_ms", "ms", median(coldP50s)*f)
	rep.add("alloc_mb_per_op", "MB", float64(ph.alloc)/float64(len(ph.outs))/(1<<20))
	rep.add("peak_rss_mb", "MB", peakMB)
	rep.add("error_ratio", "ratio", float64(rep.Failed)/float64(rep.Attempted))
	rep.na("paper_gap_pp", "pp", "MainGrid is not run")
	return nil
}

// serveLayers reports the per-layer metrics of a traced serve phase. The
// service simulates inside its handler, out of the benchmark's reach, so
// the engine layers come from replaying the phase's first-time configs
// one at a time through the traced executor.
func serveLayers(ctx context.Context, rep *runReport, o options, plain, ph *servePhase, windows [][2]int, v *verifier) error {
	if err := ph.rec.write(o.spanFile("serve-mix")); err != nil {
		return err
	}
	var spans []span
	for _, s := range ph.rec.snapshot() {
		if s.Start >= ph.from {
			spans = append(spans, s)
		}
	}

	// Replay.
	var colds []core.Config
	seen := make(map[string]bool)
	for _, rq := range ph.reqs {
		if rq.first && !seen[rq.key] {
			seen[rq.key] = true
			colds = append(colds, rq.cfg)
		}
	}
	replay := newRecorder()
	pts := tracedPass(ctx, replay, 1, colds, identity(len(colds)), 0, sweep.NewMemCache(), false)
	var results []*core.Result
	for _, pt := range pts {
		if pt.Res == nil {
			return fmt.Errorf("replay of %s: %v", pt.Config.Label(), pt.Err)
		}
		if h, err := resultHash(pt.Res); err != nil || v.want[pt.Key] == nil || h != v.want[pt.Key].hash {
			rep.fail(1)
		}
		results = append(results, pt.Res)
	}
	rspans := replay.snapshot()
	addEngineMetrics(rep, byName(rspans, selfTimes(rspans)), results, buildAllocMB(colds))

	// Handler self time: its duration minus what the cache, simulation
	// and peer spans of the same key cover.
	byKey := make(map[string][]span)
	for _, s := range spans {
		if s.Name != "service.handler" && s.Key != "" {
			byKey[s.Key] = append(byKey[s.Key], s)
		}
	}
	self := make([]time.Duration, len(spans))
	handlerOf := make(map[int64]time.Duration)
	var handlerSelf time.Duration
	for i, s := range spans {
		self[i] = s.dur()
		if s.Name == "service.handler" {
			self[i] -= covered(s, byKey[s.Key])
			handlerSelf += self[i]
			handlerOf[s.Op] = s.dur()
		}
	}
	layers := byName(spans, self)
	rep.add("core.fingerprint_us", "us", float64(ph.fp.Microseconds())/float64(len(ph.reqs)))
	rep.add("sweep.cache_get_us", "us", layers["sweep.cache_get"].meanMs()*1000)
	rep.add("sweep.cache_put_us", "us", layers["sweep.cache_put"].meanMs()*1000)
	rep.add("sweep.cache_hit_ratio", "ratio", ph.aCache.hitRatio())
	rep.add("sweep.sim_ms", "ms", layers["sweep.sim"].meanMs())
	pairs := 0
	for _, rq := range ph.reqs {
		if rq.kind == kindPair {
			pairs++
		}
	}
	rep.add("store.flight_waiters", "count", ph.waiters)
	rep.add("store.coalesced_ratio", "ratio", ph.waiters/float64(pairs/2))
	rep.add("store.peer_get_ms", "ms", layers["store.peer_get"].meanMs())
	rep.add("store.peer_hit_ratio", "ratio", ph.bPeer.hitRatio())
	h := layers["service.handler"]
	rep.add("service.handler_ms", "ms", h.meanMs())
	rep.add("service.self_ms", "ms", ms(handlerSelf)/float64(h.Calls))
	var bytesOut int
	var queue time.Duration
	var lag []float64
	for i, oc := range ph.outs {
		bytesOut += oc.size
		queue += oc.done - oc.start - handlerOf[int64(i)]
		lag = append(lag, ms(oc.start-ph.reqs[i].due))
	}
	rep.add("service.resp_kb", "KB", float64(bytesOut)/float64(len(ph.outs))/1024)
	rep.add("bench.queue_ms", "ms", ms(queue)/float64(len(ph.outs)))
	lagP99, err := percentile(lag, 0.99)
	if err != nil {
		return err
	}
	rep.add("bench.gen_lag_p99_ms", "ms", lagP99)
	// Traced against untraced median latency, window by window.
	plainLat, tracedLat := plain.latencies(), ph.latencies()
	var plainMed, tracedMed []float64
	for _, w := range windows {
		plainMed = append(plainMed, median(plainLat[w[0]:w[1]]))
		tracedMed = append(tracedMed, median(tracedLat[w[0]:w[1]]))
	}
	rep.add("bench.trace_overhead_pct", "%", pairedOverheadPct(plainMed, tracedMed))
	printSplit(layers)
	return nil
}

// flightWaiters reads the singleflight waiter count from the process's
// telemetry registry.
func flightWaiters() float64 {
	for _, f := range telemetry.Default.Snapshot() {
		if f.Name == "store_flight_waiters_total" {
			var n float64
			for _, s := range f.Samples {
				n += s.Value
			}
			return n
		}
	}
	return 0
}
