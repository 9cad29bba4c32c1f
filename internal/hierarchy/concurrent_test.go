package hierarchy

import (
	"context"
	"sync"
	"testing"

	"hcd/internal/workload"
)

// TestConcurrentApplyRace guards the scalar Apply's concurrency contract.
// The graph must be large enough to build a level (N > DirectLimit): a
// depth-0 hierarchy only exercises the mutex-protected coarse solve and
// would pass even with shared per-level scratch. Run under -race this
// caught the original bug where apply scratch lived on the Level structs.
func TestConcurrentApplyRace(t *testing.T) {
	g := workload.Grid3D(10, 10, 10, workload.Lognormal(1), 1)
	h, err := NewCtx(context.Background(), g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() == 0 {
		t.Fatal("test graph built a depth-0 hierarchy; concurrency coverage needs levels")
	}
	n := g.N()

	// Sequential baselines: Apply is deterministic, so the concurrent runs
	// must reproduce these bit-for-bit.
	const workers = 4
	want := make([][]float64, workers)
	rhs := make([][]float64, workers)
	for w := 0; w < workers; w++ {
		r := make([]float64, n)
		r[w] = 1
		r[n-1-w] = -1
		rhs[w] = r
		want[w] = make([]float64, n)
		h.Apply(want[w], r)
	}

	var wg sync.WaitGroup
	errs := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]float64, n)
			for i := 0; i < 10; i++ {
				h.Apply(dst, rhs[w])
				for v := range dst {
					if dst[v] != want[w][v] {
						errs[w]++
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, e := range errs {
		if e != 0 {
			t.Errorf("worker %d: %d/10 concurrent applies diverged from the sequential result", w, e)
		}
	}
}
