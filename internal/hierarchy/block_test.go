package hierarchy

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hcd/internal/workload"
)

func blockApplyFixture(t *testing.T, smooth int) (*Hierarchy, int) {
	t.Helper()
	g := workload.OCT3D(8, 8, 8, workload.OCTOptions{Layers: 4, Contrast: 100, NoiseSigma: 1, Seed: 7})
	opt := DefaultOptions()
	opt.DirectLimit = 60
	opt.Smooth = smooth
	h, err := NewCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() == 0 {
		t.Fatal("fixture hierarchy has no levels")
	}
	return h, g.N()
}

// TestApplyBlockMatchesColumns: the block V-cycle agrees with k scalar
// applies column by column, for both the pure recursion and the smoothed
// cycle. (To rounding: the block matvec accumulates the diagonal and
// neighbor terms separately.)
func TestApplyBlockMatchesColumns(t *testing.T) {
	for _, smooth := range []int{0, 1, 2} {
		h, n := blockApplyFixture(t, smooth)
		rng := rand.New(rand.NewSource(int64(10 + smooth)))
		const k = 3
		r := make([]float64, n*k)
		cols := make([][]float64, k)
		for j := range cols {
			cols[j] = meanFree(rng, n)
			for v := 0; v < n; v++ {
				r[v*k+j] = cols[j][v]
			}
		}
		dst := make([]float64, n*k)
		h.ApplyBlock(dst, r, k)
		ref := make([]float64, n)
		for j := 0; j < k; j++ {
			h.Apply(ref, cols[j])
			scale := 0.0
			for v := 0; v < n; v++ {
				if a := math.Abs(ref[v]); a > scale {
					scale = a
				}
			}
			for v := 0; v < n; v++ {
				if d := math.Abs(dst[v*k+j] - ref[v]); d > 1e-10*(1+scale) {
					t.Fatalf("smooth=%d col %d vertex %d: block %v vs scalar %v",
						smooth, j, v, dst[v*k+j], ref[v])
				}
			}
		}
	}
}

// TestApplyBlockK1BitIdentical: width-1 blocks fall through to the scalar
// apply exactly.
func TestApplyBlockK1BitIdentical(t *testing.T) {
	h, n := blockApplyFixture(t, 1)
	rng := rand.New(rand.NewSource(20))
	r := meanFree(rng, n)
	got := make([]float64, n)
	want := make([]float64, n)
	h.ApplyBlock(got, r, 1)
	h.Apply(want, r)
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: %v != %v", v, got[v], want[v])
		}
	}
}

// TestApplyBlockGOMAXPROCSInvariant: every block step is elementwise, a
// fixed-order segmented sum, or the invariant SpMM, so the whole V-cycle is
// bit-identical at any worker count.
func TestApplyBlockGOMAXPROCSInvariant(t *testing.T) {
	h, n := blockApplyFixture(t, 1)
	rng := rand.New(rand.NewSource(21))
	const k = 4
	r := make([]float64, n*k)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref := make([]float64, n*k)
	h.ApplyBlock(ref, r, k)
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		dst := make([]float64, n*k)
		h.ApplyBlock(dst, r, k)
		for i := range dst {
			if dst[i] != ref[i] {
				t.Fatalf("procs=%d entry %d: %v != %v", procs, i, dst[i], ref[i])
			}
		}
	}
}

// TestApplyBlockConcurrent: concurrent block applies on one hierarchy share
// the pool and the coarse lock without cross-talk (run under -race in CI).
func TestApplyBlockConcurrent(t *testing.T) {
	h, n := blockApplyFixture(t, 1)
	rng := rand.New(rand.NewSource(22))
	const k = 2
	const goroutines = 4
	inputs := make([][]float64, goroutines)
	want := make([][]float64, goroutines)
	for i := range inputs {
		inputs[i] = make([]float64, n*k)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
		want[i] = make([]float64, n*k)
		h.ApplyBlock(want[i], inputs[i], k)
	}
	var wg sync.WaitGroup
	errs := make([]int, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dst := make([]float64, n*k)
			for rep := 0; rep < 5; rep++ {
				h.ApplyBlock(dst, inputs[i], k)
				for j := range dst {
					if dst[j] != want[i][j] {
						errs[i]++
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e > 0 {
			t.Errorf("goroutine %d saw cross-talk in concurrent ApplyBlock", i)
		}
	}
}
