package hcd_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"hcd"
)

// TestDecomposeCtxMethods runs every method through DecomposeCtx and checks
// the result it reports: a quality report consistent with the decomposition
// and equal to Evaluate, and exactly the method-specific extras of the
// method populated.
func TestDecomposeCtxMethods(t *testing.T) {
	tree := hcd.RandomTree(500, hcd.LognormalWeights(1), 3)
	planar := hcd.DefaultDecomposeOptions(hcd.MethodPlanar)
	planar.Seed = 4
	minorFree := hcd.DefaultDecomposeOptions(hcd.MethodMinorFree)
	minorFree.Seed = 6
	cases := []struct {
		name string
		g    *hcd.Graph
		opt  hcd.DecomposeOptions
	}{
		{"tree", tree, hcd.DecomposeOptions{Method: hcd.MethodTree}},
		{"tree-parallel", tree, hcd.DecomposeOptions{Method: hcd.MethodTree, Parallel: true}},
		{"fixed-degree", hcd.Grid3D(8, 8, 8, hcd.LognormalWeights(1), 2),
			hcd.DecomposeOptions{Method: hcd.MethodFixedDegree, SizeCap: 4, Seed: 2}},
		{"planar", hcd.Grid2D(20, 20, hcd.LognormalWeights(1), 4), planar},
		{"minor-free", hcd.Grid2D(16, 16, hcd.LognormalWeights(1), 6), minorFree},
		{"spectral", hcd.Grid2D(12, 12, hcd.LognormalWeights(1), 8), hcd.DefaultDecomposeOptions(hcd.MethodSpectral)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := hcd.DecomposeCtx(context.Background(), tc.g, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := hcd.Validate(res.D); err != nil {
				t.Fatal(err)
			}
			if res.Report.Count != res.D.Count || res.Report.Phi <= 0 {
				t.Errorf("report %+v inconsistent with decomposition", res.Report)
			}
			if res.Report != hcd.Evaluate(res.D) {
				t.Errorf("pipeline report %+v != Evaluate", res.Report)
			}
			sparse := tc.opt.Method == hcd.MethodPlanar || tc.opt.Method == hcd.MethodMinorFree
			if sparse != (res.B != nil) {
				t.Errorf("sparse subgraph B = %v for method %v", res.B, tc.opt.Method)
			}
			if sparse && (res.B.N() != tc.g.N() || res.CoreSize <= 0 || res.CutEdges <= 0 || res.AvgStretch < 1) {
				t.Errorf("sparse pipeline extras: n=%d core=%d cut=%d stretch=%v",
					res.B.N(), res.CoreSize, res.CutEdges, res.AvgStretch)
			}
			if !sparse && (res.CoreSize != 0 || res.CutEdges != 0 || res.AvgStretch != 0) {
				t.Errorf("unexpected sparse extras: core=%d cut=%d stretch=%v", res.CoreSize, res.CutEdges, res.AvgStretch)
			}
			spectral := tc.opt.Method == hcd.MethodSpectral
			if spectral && (res.SpectralStats.Splits == 0 || res.SpectralStats.EigenCalls == 0) {
				t.Errorf("spectral stats not populated: %+v", res.SpectralStats)
			}
			if !spectral && res.SpectralStats != (hcd.SpectralCutStats{}) {
				t.Errorf("unexpected spectral stats %+v", res.SpectralStats)
			}
		})
	}
}

// The tests below pin DecomposeCtx's full build (with the evaluate stage)
// to the report-free build each per-method facade used to run: identical
// assignments and identical method-specific extras, so the evaluate stage
// never perturbs the decomposition it measures.

func sameAssignment(t *testing.T, label string, want, got *hcd.Decomposition) {
	t.Helper()
	if want.Count != got.Count {
		t.Fatalf("%s: count %d != %d", label, got.Count, want.Count)
	}
	for v := range want.Assign {
		if want.Assign[v] != got.Assign[v] {
			t.Fatalf("%s: vertex %d assigned %d, want %d", label, v, got.Assign[v], want.Assign[v])
		}
	}
}

// reportFree runs DecomposeCtx with SkipReport set, the build a per-method
// facade ran.
func reportFree(t *testing.T, g *hcd.Graph, opt hcd.DecomposeOptions) *hcd.DecomposeResult {
	t.Helper()
	opt.SkipReport = true
	res, err := hcd.DecomposeCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDecomposeCtxMatchesTreeWrappers(t *testing.T) {
	g := hcd.RandomTree(500, hcd.LognormalWeights(1), 3)
	for _, parallel := range []bool{false, true} {
		opt := hcd.DecomposeOptions{Method: hcd.MethodTree, Parallel: parallel}
		res, err := hcd.DecomposeCtx(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameAssignment(t, "tree", reportFree(t, g, opt).D, res.D)
		if res.Report.Count != res.D.Count || res.Report.Phi <= 0 {
			t.Errorf("report %+v inconsistent with decomposition", res.Report)
		}
	}
}

func TestDecomposeCtxMatchesFixedDegreeWrapper(t *testing.T) {
	g := hcd.Grid3D(8, 8, 8, hcd.LognormalWeights(1), 2)
	opt := hcd.DecomposeOptions{Method: hcd.MethodFixedDegree, SizeCap: 4, Seed: 2}
	res, err := hcd.DecomposeCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameAssignment(t, "fixed-degree", reportFree(t, g, opt).D, res.D)
	if res.Report != hcd.Evaluate(res.D) {
		t.Errorf("pipeline report %+v != Evaluate", res.Report)
	}
}

func TestDecomposeCtxMatchesPlanarWrapper(t *testing.T) {
	g := hcd.Grid2D(20, 20, hcd.LognormalWeights(1), 4)
	opt := hcd.DefaultDecomposeOptions(hcd.MethodPlanar)
	opt.Seed = 4
	res, err := hcd.DecomposeCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := reportFree(t, g, opt)
	sameAssignment(t, "planar", want.D, res.D)
	if res.CoreSize != want.CoreSize || res.CutEdges != want.CutEdges {
		t.Errorf("core/cut (%d, %d) != report-free build (%d, %d)",
			res.CoreSize, res.CutEdges, want.CoreSize, want.CutEdges)
	}
	if res.AvgStretch != want.AvgStretch {
		t.Errorf("avg stretch %v != %v", res.AvgStretch, want.AvgStretch)
	}
	if res.B == nil || res.B.N() != g.N() {
		t.Errorf("missing or mis-sized sparse subgraph B")
	}
}

func TestDecomposeCtxMatchesMinorFreeWrapper(t *testing.T) {
	g := hcd.Grid2D(16, 16, hcd.LognormalWeights(1), 6)
	opt := hcd.DefaultDecomposeOptions(hcd.MethodMinorFree)
	opt.Seed = 6
	res, err := hcd.DecomposeCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := reportFree(t, g, opt)
	sameAssignment(t, "minor-free", want.D, res.D)
	if res.CoreSize != want.CoreSize || res.CutEdges != want.CutEdges || res.AvgStretch != want.AvgStretch {
		t.Errorf("extras (%d, %d, %v) != report-free build (%d, %d, %v)",
			res.CoreSize, res.CutEdges, res.AvgStretch,
			want.CoreSize, want.CutEdges, want.AvgStretch)
	}
}

func TestDecomposeCtxMatchesSpectralWrapper(t *testing.T) {
	g := hcd.Grid2D(12, 12, hcd.LognormalWeights(1), 8)
	opt := hcd.DefaultDecomposeOptions(hcd.MethodSpectral)
	res, err := hcd.DecomposeCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := reportFree(t, g, opt)
	sameAssignment(t, "spectral", want.D, res.D)
	if res.SpectralStats != want.SpectralStats {
		t.Errorf("stats %+v != report-free build %+v", res.SpectralStats, want.SpectralStats)
	}
}

// TestDecomposeCtxBuildMetrics checks every method reports non-empty metrics
// with positive per-stage timings and the stage set its pipeline defines.
func TestDecomposeCtxBuildMetrics(t *testing.T) {
	tree := hcd.RandomTree(400, hcd.LognormalWeights(1), 1)
	grid := hcd.Grid2D(16, 16, hcd.LognormalWeights(1), 1)
	cases := []struct {
		method hcd.DecomposeMethod
		g      *hcd.Graph
		stages []string
	}{
		{hcd.MethodTree, tree, []string{"tree-decompose", "evaluate"}},
		{hcd.MethodFixedDegree, grid, []string{"cluster", "evaluate"}},
		{hcd.MethodPlanar, grid, []string{"base-tree", "sparsify", "strip-cut-core", "tree-decompose", "rebind", "evaluate"}},
		{hcd.MethodMinorFree, grid, []string{"base-tree", "sparsify", "strip-cut-core", "tree-decompose", "rebind", "evaluate"}},
		{hcd.MethodSpectral, grid, []string{"spectral-cut", "evaluate"}},
	}
	for _, tc := range cases {
		opt := hcd.DefaultDecomposeOptions(tc.method)
		res, err := hcd.DecomposeCtx(context.Background(), tc.g, opt)
		if err != nil {
			t.Fatalf("%v: %v", tc.method, err)
		}
		m := res.Metrics
		if len(m.Stages) != len(tc.stages) {
			t.Fatalf("%v: stages %+v, want %v", tc.method, m.Stages, tc.stages)
		}
		for i, name := range tc.stages {
			s := m.Stages[i]
			if s.Name != name {
				t.Errorf("%v: stage %d is %q, want %q", tc.method, i, s.Name, name)
			}
			if s.Duration <= 0 {
				t.Errorf("%v: stage %q has non-positive duration %v", tc.method, s.Name, s.Duration)
			}
		}
		if m.TotalTime <= 0 {
			t.Errorf("%v: non-positive total time %v", tc.method, m.TotalTime)
		}
		if m.Cert != res.Report.Cert {
			t.Errorf("%v: metrics cert %+v != report cert %+v", tc.method, m.Cert, res.Report.Cert)
		}
		if m.Cert.Cores == 0 && m.Cert.Bounds == 0 {
			t.Errorf("%v: evaluate stage certified nothing: %+v", tc.method, m.Cert)
		}
		if res.D == nil || res.D.Count == 0 {
			t.Errorf("%v: empty decomposition", tc.method)
		}
	}
}

func TestDecomposeCtxSkipReport(t *testing.T) {
	g := hcd.Grid2D(10, 10, hcd.LognormalWeights(1), 1)
	opt := hcd.DefaultDecomposeOptions(hcd.MethodFixedDegree)
	opt.SkipReport = true
	res, err := hcd.DecomposeCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != (hcd.Report{}) {
		t.Errorf("SkipReport left a report: %+v", res.Report)
	}
	if _, ok := res.Metrics.Stage("evaluate"); ok {
		t.Error("SkipReport still ran the evaluate stage")
	}
}

func TestDecomposeCtxPreCancelled(t *testing.T) {
	g := hcd.Grid2D(10, 10, hcd.LognormalWeights(1), 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []hcd.DecomposeMethod{
		hcd.MethodTree, hcd.MethodPlanar, hcd.MethodMinorFree,
		hcd.MethodFixedDegree, hcd.MethodSpectral,
	} {
		_, err := hcd.DecomposeCtx(ctx, g, hcd.DefaultDecomposeOptions(m))
		if !errors.Is(err, hcd.ErrBuildCancelled) || !errors.Is(err, context.Canceled) {
			t.Errorf("%v: error %v does not wrap both sentinels", m, err)
		}
	}
}

// TestDecomposeCtxMidBuildCancellation cancels a large fixed-degree build
// shortly after it starts and requires a prompt return carrying both
// sentinels — the end-to-end promptness contract of the build path.
func TestDecomposeCtxMidBuildCancellation(t *testing.T) {
	g := hcd.Grid3D(24, 24, 24, hcd.LognormalWeights(1), 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := hcd.DecomposeCtx(ctx, g, hcd.DefaultDecomposeOptions(hcd.MethodFixedDegree))
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("build finished before the cancel landed")
	}
	if !errors.Is(err, hcd.ErrBuildCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap both sentinels", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled build took %v to return", elapsed)
	}
}

func TestDecomposeCtxUnknownMethod(t *testing.T) {
	g := hcd.Grid2D(4, 4, nil, 1)
	if _, err := hcd.DecomposeCtx(context.Background(), g, hcd.DecomposeOptions{Method: hcd.DecomposeMethod(42)}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestDecomposeMethodString(t *testing.T) {
	names := map[hcd.DecomposeMethod]string{
		hcd.MethodTree:        "tree",
		hcd.MethodPlanar:      "planar",
		hcd.MethodMinorFree:   "minor-free",
		hcd.MethodFixedDegree: "fixed-degree",
		hcd.MethodSpectral:    "spectral",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
	if hcd.DecomposeMethod(42).String() == "" {
		t.Error("unknown method stringer empty")
	}
}

func TestBuildLaminarCtxAndHierarchyCtxCancellation(t *testing.T) {
	g := hcd.Grid2D(20, 20, hcd.LognormalWeights(1), 1)
	// Larger than the default hierarchy DirectLimit, so its level loop (and
	// the cancellation check inside it) actually runs.
	big := hcd.Grid3D(10, 10, 10, hcd.LognormalWeights(1), 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := hcd.BuildLaminarCtx(ctx, g, 4, 10, 1); !errors.Is(err, hcd.ErrBuildCancelled) {
		t.Errorf("BuildLaminarCtx error %v does not wrap ErrBuildCancelled", err)
	}
	if _, err := hcd.NewHierarchyCtx(ctx, big, hcd.DefaultHierarchyOptions()); !errors.Is(err, hcd.ErrBuildCancelled) {
		t.Errorf("NewHierarchyCtx error %v does not wrap ErrBuildCancelled", err)
	}
	// A live context builds the full hierarchy.
	lam, err := hcd.BuildLaminarCtx(context.Background(), g, 4, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lam.Depth() == 0 {
		t.Error("live-context laminar build has no levels")
	}
}
