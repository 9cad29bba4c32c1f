package main

// The serve-mixed workload: traffic to an in-process serve.Server over real
// loopback HTTP. On graphs of about a thousand vertices the serve stack and
// the dense coarse solve dominate and the large-graph kernels barely run,
// and a small share of requests upload a new graph, solve on it and delete
// an older one, so builds compete with solves for the cores. The request
// sequence comes from replay.Generate; the timing is the benchmark's own: an
// open-loop Poisson phase timed from each request's due time, then a
// closed-loop phase with one client per core.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hcd"
	"hcd/internal/cli"
	"hcd/internal/obs"
	"hcd/internal/replay"
	"hcd/internal/serve"
)

const (
	// serveRate is the open-loop offered load in requests per second, well
	// under the closed-loop saturation.
	serveRate = 60.0
	// latencyLimit is the latency a request must meet to count toward
	// goodput. A failed request misses it whatever its latency.
	latencyLimit = 150 * time.Millisecond
	// openShare is the part of the measuring time given to the open loop,
	// which is reported but not gated; the gated closed loop gets the rest.
	openShare = 0.3
	// extraHandles is how many uploaded graphs stay live; each upload
	// deletes the oldest beyond that.
	extraHandles = 2
	// writeSide is the side of the grid an upload sends: about a thousand
	// vertices, like the three resident graphs.
	writeSide = 32
	// writeGraph is the scenario slot that marks an upload request.
	writeGraph = 3
)

var serveSpecs = []string{"grid2d:32", "road:32", "femesh:32"}

// graphSeed generates the three resident graphs. They are part of the
// workload's definition; --seed varies the traffic: the request sequence,
// the right-hand sides and the uploaded graphs.
const graphSeed = 1

// serveScenario is the request mix: single right-hand-side solves on the
// three graphs, some 4-column solves, and about 3% uploads.
func serveScenario(seed int64, n int, arrival string, rate float64) replay.Scenario {
	return replay.Scenario{
		Name: "serve-mixed", Seed: seed, Requests: n, Arrival: arrival, Rate: rate, Tenants: 3,
		Graphs: []replay.GraphSpec{{Spec: serveSpecs[0]}, {Spec: serveSpecs[1]}, {Spec: serveSpecs[2]}, {Spec: "upload"}},
		Mix: []replay.MixEntry{
			{Graph: 0, Weight: 3}, {Graph: 1, Weight: 3}, {Graph: 2, Weight: 3},
			{Graph: 0, Weight: 0.5, RHS: 4}, {Graph: 2, Weight: 0.5, RHS: 4},
			{Graph: writeGraph, Weight: 0.3},
		},
	}
}

// uploadGraph is the graph an upload request sends, a function of its seed.
func uploadGraph(seed int64) *hcd.Graph {
	return hcd.Grid2D(writeSide, writeSide, hcd.LognormalWeights(1), seed)
}

// sample is one request's record.
type sample struct {
	rq      replay.Request
	err     error
	iters   []int // per right-hand side, from the response
	latency time.Duration
	submit  time.Duration // uploads: the submit call alone
}

// target is one server under test with its HTTP client.
type target struct {
	srv      *serve.Server
	ts       *httptest.Server
	tr       *http.Transport
	client   *http.Client
	tracer   *obs.Tracer
	handles  []string
	mu       sync.Mutex
	uploaded []string // live uploaded handles, oldest first
}

func newTarget(ctx context.Context, traced bool) (*target, error) {
	cfg := serve.Config{
		// hcd-server's defaults, except that admission never throttles.
		Admission: serve.AdmissionConfig{Rate: 1e12, Burst: 1e12, MaxQueue: 64, Policy: serve.FCFS},
	}
	t := &target{}
	if traced {
		t.tracer = obs.NewTracer()
		cfg.Tracer = t.tracer
	}
	t.srv = serve.New(cfg)
	t.ts = httptest.NewServer(t.srv.Handler())
	procs := runtime.GOMAXPROCS(0)
	t.tr = &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}
	t.client = &http.Client{Transport: t.tr}
	for _, spec := range serveSpecs {
		id, _, err := t.submit(ctx, fmt.Sprintf("spec=%s&seed=%d", spec, graphSeed), nil)
		if err != nil {
			t.close()
			return nil, err
		}
		t.handles = append(t.handles, id)
	}
	return t, nil
}

func (t *target) close() {
	t.tr.CloseIdleConnections()
	t.ts.Close()
	t.srv.Close()
}

// call issues one HTTP request and returns its status and body.
func (t *target) call(ctx context.Context, method, path, tenant string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, t.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// submit uploads or generates a graph with wait=true and returns its handle.
func (t *target) submit(ctx context.Context, query string, body []byte) (string, int, error) {
	code, out, err := t.call(ctx, http.MethodPost, "/v1/graphs?wait=true&"+query, "", body)
	if err != nil {
		return "", 0, fmt.Errorf("submit: %w", err)
	}
	var sub struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		N      int    `json:"n"`
	}
	if code != http.StatusCreated || json.Unmarshal(out, &sub) != nil || sub.Status != "ready" {
		return "", 0, fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(out))
	}
	return sub.ID, sub.N, nil
}

// solve runs one solve request and returns per-column iteration counts.
func (t *target) solve(ctx context.Context, id, tenant string, rhs int, seed int64) ([]int, error) {
	body, _ := json.Marshal(map[string]any{"rhs": rhs, "seed": seed, "wait": true})
	code, out, err := t.call(ctx, http.MethodPost, "/v1/graphs/"+id+"/solve", tenant, body)
	if err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("solve: HTTP %d: %s", code, bytes.TrimSpace(out))
	}
	var resp struct {
		Results []struct {
			Converged  bool `json:"converged"`
			Iterations int  `json:"iterations"`
		} `json:"results"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}
	if len(resp.Results) != rhs {
		return nil, fmt.Errorf("solve: %d results for %d right-hand sides", len(resp.Results), rhs)
	}
	iters := make([]int, rhs)
	for i, res := range resp.Results {
		if !res.Converged {
			return nil, fmt.Errorf("solve: rhs %d did not converge", i)
		}
		iters[i] = res.Iterations
	}
	return iters, nil
}

// upload is what an upload request sends, made before the request is
// timed so the client's own graph generation stays out of its latency.
type upload struct {
	body []byte
	n    int
}

// makeUpload returns the upload for rq, or nil when rq is a plain solve.
func makeUpload(rq replay.Request) (*upload, error) {
	if rq.Graph != writeGraph {
		return nil, nil
	}
	g := uploadGraph(rq.Seed)
	var buf bytes.Buffer
	if err := hcd.WriteEdgeList(&buf, g); err != nil {
		return nil, err
	}
	return &upload{body: buf.Bytes(), n: g.N()}, nil
}

// issue executes one trace request: a solve, or for an upload a submit of
// the new graph, a solve on it and the deletion of the oldest uploaded
// handle beyond extraHandles.
func (t *target) issue(ctx context.Context, rq replay.Request, up *upload) sample {
	s := sample{rq: rq}
	if up == nil {
		s.iters, s.err = t.solve(ctx, t.handles[rq.Graph], rq.Tenant, rq.RHS, rq.Seed)
		return s
	}
	start := time.Now()
	id, n, err := t.submit(ctx, "format=edgelist", up.body)
	s.submit = time.Since(start)
	if err != nil {
		s.err = err
		return s
	}
	if n != up.n {
		s.err = fmt.Errorf("upload: server read %d vertices, sent %d", n, up.n)
		return s
	}
	if s.iters, s.err = t.solve(ctx, id, rq.Tenant, rq.RHS, rq.Seed); s.err != nil {
		return s
	}
	t.mu.Lock()
	t.uploaded = append(t.uploaded, id)
	var drop string
	if len(t.uploaded) > extraHandles {
		drop, t.uploaded = t.uploaded[0], t.uploaded[1:]
	}
	t.mu.Unlock()
	if drop != "" {
		if code, out, err := t.call(ctx, http.MethodDelete, "/v1/graphs/"+drop, "", nil); err != nil || code != http.StatusNoContent {
			s.err = fmt.Errorf("delete: HTTP %d %v: %s", code, err, bytes.TrimSpace(out))
		}
	}
	return s
}

// openLoop sends reqs at their due times over at most GOMAXPROCS
// connections. Each request is timed from its due time, so a stall also
// delays the requests queued behind it; lag records how late the generator
// itself handed each request over.
func (t *target) openLoop(ctx context.Context, reqs []replay.Request, due []time.Duration) (samples []sample, lag []float64, wall time.Duration, err error) {
	ups := make([]*upload, len(reqs))
	for i, rq := range reqs {
		if ups[i], err = makeUpload(rq); err != nil {
			return nil, nil, 0, err
		}
	}
	samples = make([]sample, len(reqs))
	lag = make([]float64, len(reqs))
	work := make(chan int, len(reqs)) // one slot per request: the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				samples[i] = t.issue(ctx, reqs[i], ups[i])
				samples[i].latency = time.Since(start) - due[i]
			}
		}()
	}
	for i := range reqs {
		if d := time.Until(start.Add(due[i])); d > 0 {
			time.Sleep(d)
		}
		lag[i] = ms(time.Since(start) - due[i])
		work <- i
	}
	close(work)
	wg.Wait()
	return samples, lag, time.Since(start), nil
}

// closedLoop runs GOMAXPROCS clients, each sending its next request when
// the previous answer lands, until d has passed.
func (t *target) closedLoop(ctx context.Context, reqs []replay.Request, d time.Duration) (samples []sample, wall time.Duration) {
	samples = make([]sample, len(reqs))
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				up, err := makeUpload(reqs[i])
				if err != nil {
					samples[i] = sample{rq: reqs[i], err: err}
					continue
				}
				begin := time.Now()
				samples[i] = t.issue(ctx, reqs[i], up)
				samples[i].latency = time.Since(begin)
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	return samples[:min(int(next.Load()), len(reqs))], wall
}

// phases is one untraced or traced measurement: the open loop, then the
// closed loop.
type phases struct {
	open, closed []sample
	lag          []float64
	openWall     time.Duration
	closedWall   time.Duration
}

func (p *phases) saturation() float64 { return float64(succeeded(p.closed)) / p.closedWall.Seconds() }

// latencies returns the samples' latencies in milliseconds; a failed
// request counts as at least the latency limit.
func latencies(ss []sample) []float64 {
	lat := make([]float64, len(ss))
	for i, s := range ss {
		lat[i] = ms(s.latency)
		if s.err != nil {
			lat[i] = math.Max(lat[i], ms(latencyLimit))
		}
	}
	return lat
}

func succeeded(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.err == nil {
			n++
		}
	}
	return n
}

// runPhases drives both phases against t for d in total.
func runPhases(ctx context.Context, t *target, seed int64, d time.Duration) (*phases, error) {
	openFor := time.Duration(float64(d) * openShare)
	nOpen := max(1, int(math.Round(serveRate*openFor.Seconds())))
	tr, err := replay.Generate(serveScenario(seed, nOpen, replay.ArrivalOpen, serveRate))
	if err != nil {
		return nil, err
	}
	// Poisson arrivals conditioned on nOpen of them in openFor: the
	// generated offsets scaled so the last one falls at the phase end.
	due := make([]time.Duration, nOpen)
	scale := float64(openFor) / tr.Requests[nOpen-1].OffsetMS
	for i, rq := range tr.Requests {
		due[i] = time.Duration(rq.OffsetMS * scale)
	}
	p := &phases{}
	if p.open, p.lag, p.openWall, err = t.openLoop(ctx, tr.Requests, due); err != nil {
		return nil, err
	}
	closedFor := d - openFor
	// More requests than the closed loop can send in closedFor.
	nClosed := max(64, int(1000*closedFor.Seconds()))
	trc, err := replay.Generate(serveScenario(seed+1, nClosed, replay.ArrivalClosed, 0))
	if err != nil {
		return nil, err
	}
	p.closed, p.closedWall = t.closedLoop(ctx, trc.Requests, closedFor)
	return p, nil
}

func runServe(r *run) error {
	ctx := context.Background()
	var t *target
	err := r.setup(func() error {
		if t != nil {
			t.close()
		}
		var err error
		if t, err = newTarget(ctx, false); err != nil {
			return err
		}
		return t.warm(ctx)
	})
	if err != nil {
		return err
	}
	untracedFor, tracedFor := r.split()
	p, err := runPhases(ctx, t, r.seed, untracedFor)
	t.close()
	if err != nil {
		return err
	}
	or, err := newOracle(ctx)
	if err != nil {
		return err
	}
	if err := or.check(ctx, r, append(p.open, p.closed...)); err != nil {
		return err
	}
	lat := latencies(p.open)
	good := 0
	for _, s := range p.open {
		if s.err == nil && s.latency <= latencyLimit {
			good++
		}
	}
	lagP99 := quantile(p.lag, 0.99)
	if lagP99 > ms(latencyLimit) {
		return fmt.Errorf("invalid run: generator lag p99 %.1f ms exceeds the %v latency limit", lagP99, latencyLimit)
	}
	r.notef("graphs %v, traffic seed %d; open loop %.0f rps for %.1f s, closed loop %d clients for %.1f s",
		serveSpecs, r.seed, serveRate, p.openWall.Seconds(), runtime.GOMAXPROCS(0), p.closedWall.Seconds())
	var sizes [][]int
	for _, h := range or.hiers {
		sizes = append(sizes, h.LevelSizes())
	}
	openIters := 0
	for _, s := range p.open {
		for _, it := range s.iters {
			openIters += it
		}
	}
	r.notef("exact: open-loop requests=%d iterations=%d level_sizes=%v", len(p.open), openIters, sizes)
	// The gated latencies come from the closed loop: over ten seeds the
	// open loop's tail spread wider than any bound allows, because its few
	// slowest requests depend on where the Poisson bursts fall.
	r.latency("closed-loop requests", latencies(p.closed))
	r.e2e.set("ops_per_s", "1/s", p.saturation())
	r.named("latency_ms_p50", "ms", median(lat))
	r.named("latency_ms_p99", "ms", quantile(lat, 0.99))
	r.named("goodput_rps", "1/s", float64(good)/p.openWall.Seconds())
	r.named("saturation_rps", "1/s", p.saturation())
	r.named("gen_lag_ms_p99", "ms", lagP99)
	if !r.trace {
		return nil
	}

	tt, err := newTarget(ctx, true)
	if err != nil {
		return err
	}
	defer tt.close()
	if err := tt.warm(ctx); err != nil {
		return err
	}
	pt, err := runPhases(ctx, tt, r.seed, tracedFor)
	if err != nil {
		return err
	}
	if err := or.check(ctx, r, append(pt.open, pt.closed...)); err != nil {
		return err
	}
	r.overhead(p.saturation(), pt.saturation())
	if err := tt.layers(ctx, r, pt); err != nil {
		return err
	}
	lay := layerSamples{}
	var ws int64
	for i, spec := range serveSpecs {
		rep, err := replayLevels(ctx, or.graphs[i], or.hopt)
		if err != nil {
			return fmt.Errorf("%s: %w", spec, err)
		}
		rep.add(lay, true)
		ws += or.graphs[i].Bytes() + or.hiers[i].MemoryBytes()
	}
	lay.report(r)
	r.layers["bench.gen_lag_ms_p99"] = quantile(pt.lag, 0.99)
	r.workingSet(ws)
	return nil
}

// warm sends a few requests per graph from every client, so each handle's
// engine pool is built before timing starts.
func (t *target) warm(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range t.handles {
				for rep := 0; rep < 2; rep++ {
					if _, err := t.solve(ctx, t.handles[i], "warm", 1, int64(1+w)); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// layers reads the serve layer's own numbers from outside: span self times
// from the tracer and counters from /metrics.json.
func (t *target) layers(ctx context.Context, r *run, p *phases) error {
	spans := t.tracer.Spans()
	children := map[uint64]time.Duration{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] += sp.Duration
		}
	}
	var self, builds []float64
	for _, sp := range spans {
		switch sp.Name {
		case "serve/solve":
			self = append(self, ms(sp.Duration-children[sp.ID]))
		case "serve/build":
			builds = append(builds, ms(sp.Duration))
		}
	}
	r.layers["serve.self_ms_p50"] = median(self)
	r.layers["hierarchy.build_ms"] = median(builds)

	var submits []float64
	iters, cols := 0, 0
	for _, s := range append(p.open, p.closed...) {
		if s.rq.Graph == writeGraph && s.err == nil {
			submits = append(submits, ms(s.submit))
		}
		for _, it := range s.iters {
			iters += it
			cols++
		}
	}
	r.layers["serve.submit_ms_p50"] = median(submits)
	if cols > 0 {
		r.layers["solver.iterations_per_rhs"] = float64(iters) / float64(cols)
	}

	code, body, err := t.call(ctx, http.MethodGet, "/metrics.json", "", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("metrics.json: HTTP %d %v", code, err)
	}
	var doc struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("metrics.json: %w", err)
	}
	hits, misses := doc.Counters["serve_handle_cache_hits"], doc.Counters["serve_handle_cache_misses"]
	if hits+misses > 0 {
		r.layers["serve.cache_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	var built int64
	for name, v := range doc.Counters {
		if strings.HasPrefix(name, "serve_builds_total") {
			built += v
		}
	}
	r.layers["serve.builds"] = float64(built)
	r.layers["serve.engines_live"] = doc.Gauges["serve_engines"]
	// The histogram's own quantile estimate, read from the registry behind
	// /metrics.json.
	wait := t.srv.Registry().Histogram("serve_queue_wait_seconds", nil)
	r.layers["serve.queue_wait_ms_p99"] = 1000 * wait.Quantile(0.99)
	return nil
}

// oracle recomputes every served answer with hcd.Do on the same graph,
// hierarchy options, seed and right-hand sides. Block and batched columns
// are bit-identical to scalar ones, so iteration counts must match exactly.
type oracle struct {
	hopt   hcd.HierarchyOptions
	graphs []*hcd.Graph
	hiers  []*hcd.Hierarchy
}

func newOracle(ctx context.Context) (*oracle, error) {
	o := &oracle{hopt: hcd.DefaultHierarchyOptions()}
	o.hopt.Seed = graphSeed // the server takes the submit's seed for its hierarchy too
	for _, spec := range serveSpecs {
		g, err := cli.BuildGraph(spec, graphSeed)
		if err != nil {
			return nil, err
		}
		h, err := hcd.NewHierarchyCtx(ctx, g, o.hopt)
		if err != nil {
			return nil, err
		}
		o.graphs = append(o.graphs, g)
		o.hiers = append(o.hiers, h)
	}
	return o, nil
}

// want returns the iteration counts hcd.Do gives for one request.
func (o *oracle) want(ctx context.Context, rq replay.Request) ([]int, error) {
	g, h := (*hcd.Graph)(nil), (*hcd.Hierarchy)(nil)
	if rq.Graph == writeGraph {
		g = uploadGraph(rq.Seed)
		var err error
		if h, err = hcd.NewHierarchyCtx(ctx, g, hcd.DefaultHierarchyOptions()); err != nil {
			return nil, err
		}
	} else {
		g, h = o.graphs[rq.Graph], o.hiers[rq.Graph]
	}
	b := make([][]float64, rq.RHS)
	for i := range b {
		b[i] = cli.MeanFreeRHS(g.N(), rq.Seed+int64(i))
	}
	resp, err := hcd.Do(ctx, g, hcd.SolveRequest{B: b, M: h, Options: hcd.DefaultSolveOptions()})
	if err != nil {
		return nil, err
	}
	iters := make([]int, len(resp.Results))
	for i, res := range resp.Results {
		iters[i] = res.Iterations
	}
	return iters, nil
}

// check records every sample as one operation, failing those that erred or
// whose iteration counts differ from the oracle's. It runs after the timed
// phases, on one goroutine per core.
func (o *oracle) check(ctx context.Context, r *run, ss []sample) error {
	errs := make([]error, len(ss))
	var next atomic.Int64
	var wg sync.WaitGroup
	var fatal error
	var mu sync.Mutex
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ss) {
					return
				}
				s := ss[i]
				if s.err != nil {
					errs[i] = fmt.Errorf("request %d: %w", s.rq.Index, s.err)
					continue
				}
				want, err := o.want(ctx, s.rq)
				if err != nil {
					mu.Lock()
					fatal = err
					mu.Unlock()
					return
				}
				if !slices.Equal(want, s.iters) {
					errs[i] = fmt.Errorf("request %d on graph %d: %v iterations, hcd.Do gives %v", s.rq.Index, s.rq.Graph, s.iters, want)
				}
			}
		}()
	}
	wg.Wait()
	if fatal != nil {
		return fmt.Errorf("oracle: %w", fatal)
	}
	for _, err := range errs {
		r.record(err)
	}
	return nil
}
