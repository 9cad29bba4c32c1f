package main

// The build workload: cold builds on oct:64, the OCT-like layered volume.
// Clustering, contraction, the dense coarse factorization and the snapshot
// codec do nearly all the work and no PCG runs, so it isolates the cost the
// paper's Remark 1 calls cheap. Restore gets its own metric because it costs
// most of a fresh build even though it skips clustering.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"hcd"
	"hcd/internal/cli"
	"hcd/internal/decomp"
	"hcd/internal/hierarchy"
)

const buildSpec = "oct:64"

// coldBuild is one build operation: the four steps in order, each timed.
type coldBuild struct {
	h       *hcd.Hierarchy
	res     *hcd.DecomposeResult
	snap    []byte
	g2      *hcd.Graph
	h2      *hcd.Hierarchy
	steps   [4]time.Duration // hierarchy, decompose, write snapshot, read snapshot
	applyMS []float64        // the two checked Apply calls
}

func (c *coldBuild) total() time.Duration {
	return c.steps[0] + c.steps[1] + c.steps[2] + c.steps[3]
}

func doColdBuild(ctx context.Context, g *hcd.Graph) (*coldBuild, error) {
	c := &coldBuild{}
	var err error
	t := time.Now()
	if c.h, err = hcd.NewHierarchyCtx(ctx, g, hcd.DefaultHierarchyOptions()); err != nil {
		return nil, err
	}
	c.steps[0] = time.Since(t)
	t = time.Now()
	if c.res, err = hcd.DecomposeCtx(ctx, g, hcd.DefaultDecomposeOptions(hcd.MethodFixedDegree)); err != nil {
		return nil, err
	}
	c.steps[1] = time.Since(t)
	var buf bytes.Buffer
	t = time.Now()
	if err = hcd.WriteHierarchySnapshot(&buf, g, c.h); err != nil {
		return nil, err
	}
	c.steps[2] = time.Since(t)
	c.snap = buf.Bytes()
	t = time.Now()
	if c.g2, c.h2, err = hcd.ReadHierarchySnapshot(ctx, bytes.NewReader(c.snap)); err != nil {
		return nil, err
	}
	c.steps[3] = time.Since(t)
	return c, nil
}

// buildRef holds the exact results of the set-up build every later build
// must reproduce.
type buildRef struct {
	clusters int
	subsets  int64
	sizes    []int
	snap     int
	probe    []float64
	apply    []float64 // h.Apply(probe) of the set-up build
}

// check verifies one build against the reference: a valid decomposition
// with the reference's cluster count and certification work, the same level
// sizes and snapshot size, and a restored hierarchy whose Apply matches the
// fresh one bit for bit.
func (c *coldBuild) check(g *hcd.Graph, ref *buildRef) error {
	if err := c.res.D.Validate(); err != nil {
		return fmt.Errorf("decomposition invalid: %w", err)
	}
	if c.res.Report.Count != ref.clusters || c.res.Report.Cert.Subsets != ref.subsets {
		return fmt.Errorf("decomposition has %d clusters and %d cert subsets, reference %d and %d",
			c.res.Report.Count, c.res.Report.Cert.Subsets, ref.clusters, ref.subsets)
	}
	if s := c.h.LevelSizes(); !slices.Equal(s, ref.sizes) {
		return fmt.Errorf("hierarchy level sizes %v, reference %v", s, ref.sizes)
	}
	if s := c.h2.LevelSizes(); !slices.Equal(s, ref.sizes) {
		return fmt.Errorf("restored level sizes %v, reference %v", s, ref.sizes)
	}
	if len(c.snap) != ref.snap {
		return fmt.Errorf("snapshot is %d bytes, reference %d", len(c.snap), ref.snap)
	}
	if c.g2.N() != g.N() || c.g2.M() != g.M() {
		return fmt.Errorf("restored graph has n=%d m=%d, want n=%d m=%d", c.g2.N(), c.g2.M(), g.N(), g.M())
	}
	y1 := make([]float64, g.N())
	y2 := make([]float64, g.N())
	t := time.Now()
	c.h.Apply(y1, ref.probe)
	t1 := time.Now()
	c.h2.Apply(y2, ref.probe)
	c.applyMS = []float64{ms(t1.Sub(t)), ms(time.Since(t1))}
	if i := firstBitDiff(y1, ref.apply); i >= 0 {
		return fmt.Errorf("hierarchy Apply differs from the reference at %d", i)
	}
	if i := firstBitDiff(y2, y1); i >= 0 {
		return fmt.Errorf("restored hierarchy Apply differs from the fresh one at %d", i)
	}
	return nil
}

func runBuild(r *run) error {
	ctx := context.Background()
	var g *hcd.Graph
	var ref *buildRef
	err := r.setup(func() error {
		var err error
		if g, err = cli.BuildGraph(buildSpec, r.seed); err != nil {
			return err
		}
		c, err := doColdBuild(ctx, g)
		if err != nil {
			return err
		}
		ref = &buildRef{
			clusters: c.res.Report.Count, subsets: c.res.Report.Cert.Subsets,
			sizes: c.h.LevelSizes(), snap: len(c.snap),
			probe: cli.MeanFreeRHS(g.N(), r.seed),
		}
		ref.apply = make([]float64, g.N())
		c.h.Apply(ref.apply, ref.probe)
		return nil
	})
	if err != nil {
		return err
	}

	untracedFor, tracedFor := r.split()
	var steps [4][]float64
	ops := r.measure(untracedFor, func(int) (time.Duration, error) {
		c, err := doColdBuild(ctx, g)
		if err != nil {
			return 0, err
		}
		for i, d := range c.steps {
			steps[i] = append(steps[i], ms(d))
		}
		return c.total(), c.check(g, ref)
	})
	r.notef("graph %s: n=%d m=%d, level sizes %v, snapshot %d bytes", buildSpec, g.N(), g.M(), ref.sizes, ref.snap)
	r.notef("exact: clusters=%d cert_subsets=%d level_sizes=%v snapshot_bytes=%d", ref.clusters, ref.subsets, ref.sizes, ref.snap)
	r.latency("cold builds", ops)
	r.e2e.set("ops_per_s", "1/s", float64(len(ops))/(sum(ops)/1000))
	r.named("build_ms_p50", "ms", median(steps[0]))
	r.named("build_ms_tail", "ms", quantile(steps[0], tailQuantile(len(ops))))
	r.named("decompose_ms_p50", "ms", median(steps[1]))
	r.named("restore_ms_p50", "ms", median(steps[3]))
	if !r.trace {
		return nil
	}

	lay := layerSamples{}
	var ws int64
	traced := r.measure(tracedFor, func(int) (time.Duration, error) {
		c, err := doColdBuild(ctx, g)
		if err != nil {
			return 0, err
		}
		if err := c.check(g, ref); err != nil {
			return c.total(), err
		}
		// Live during a build: the graph and hierarchy twice (fresh and
		// restored) and the snapshot.
		ws = 2*(g.Bytes()+c.h.MemoryBytes()) + int64(len(c.snap))
		return c.total(), traceBuild(ctx, g, c, lay)
	})
	r.overhead(float64(len(ops))/sum(ops), float64(len(traced))/sum(traced))
	lay.report(r)
	r.layers["gio.snapshot_bytes"] = float64(ref.snap)
	r.workingSet(ws)
	return nil
}

// traceBuild measures the layers of one build from outside: the DecomposeCtx
// stage times and quality, a replay of the hierarchy's level loop with the
// same public calls, a Rebuild from the dumped levels, and the snapshot
// codec's share of the restore.
func traceBuild(ctx context.Context, g *hcd.Graph, c *coldBuild, lay layerSamples) error {
	for _, st := range c.res.Metrics.Stages {
		switch st.Name {
		case decomp.StageCluster:
			lay.add("decomp.cluster_ms", ms(st.Duration))
		case decomp.StageEvaluate:
			lay.add("decomp.evaluate_ms", ms(st.Duration))
		}
	}
	lay.add("decomp.clusters", float64(c.res.Report.Count))
	lay.add("decomp.cert_subsets", float64(c.res.Report.Cert.Subsets))
	lay.add("decomp.phi_min", c.res.Report.Phi)
	lay.add("hierarchy.build_ms", ms(c.steps[0]))
	lay.add("gio.encode_ms", ms(c.steps[2]))
	lay.add("hierarchy.apply_ms", median(c.applyMS))
	lay.add("hierarchy.apply_calls", float64(len(c.applyMS)))

	rep, err := replayLevels(ctx, g, hcd.DefaultHierarchyOptions())
	if err != nil {
		return err
	}
	if !slices.Equal(rep.sizes, c.h.LevelSizes()) {
		return fmt.Errorf("replayed level sizes %v, hierarchy has %v", rep.sizes, c.h.LevelSizes())
	}
	rep.add(lay, false)

	levels, smooth := c.h.DumpLevels()
	t := time.Now()
	h3, err := hierarchy.Rebuild(ctx, g, levels, smooth)
	if err != nil {
		return err
	}
	rebuild := time.Since(t)
	if !slices.Equal(h3.LevelSizes(), c.h.LevelSizes()) {
		return fmt.Errorf("rebuilt level sizes %v, hierarchy has %v", h3.LevelSizes(), c.h.LevelSizes())
	}
	lay.add("hierarchy.rebuild_ms", ms(rebuild))
	lay.add("gio.decode_ms", ms(c.steps[3]-rebuild))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// firstBitDiff returns the first index where a and b differ bit for bit, or
// -1 when they are identical.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}
