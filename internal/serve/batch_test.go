package serve

import (
	"context"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hcd"
	"hcd/internal/cli"
	"hcd/internal/obs"
)

// echoExec is a batch executor that returns each column as its own solution,
// so tests can verify every waiter gets exactly its own slice back.
func echoExec(execs *atomic.Int32) batchExec {
	return func(_ context.Context, cols [][]float64) ([]hcd.SolveResult, error) {
		execs.Add(1)
		out := make([]hcd.SolveResult, len(cols))
		for i, c := range cols {
			out[i] = hcd.SolveResult{X: c, Converged: true}
		}
		return out, nil
	}
}

// TestBatcherCoalescesAndSlices: concurrent multi-column submissions under
// one key coalesce into few executions, and each waiter receives exactly its
// own columns back — no cross-request mixing (run under -race).
func TestBatcherCoalescesAndSlices(t *testing.T) {
	reg := obs.NewRegistry()
	bt := newBatcher(50*time.Millisecond, 64, reg)
	var execs atomic.Int32
	exec := echoExec(&execs)
	key := batchKey{handle: "h", tol: 1e-8, maxIter: 100}

	const goroutines = 6
	type outcome struct {
		results []hcd.SolveResult
		width   int
		err     error
	}
	got := make([]outcome, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cols := [][]float64{{float64(i)}, {float64(i) + 0.5}}
			r, w, err := bt.solve(context.Background(), key, cols, exec)
			got[i] = outcome{r, w, err}
		}(i)
	}
	wg.Wait()

	for i, o := range got {
		if o.err != nil {
			t.Fatalf("goroutine %d: %v", i, o.err)
		}
		if len(o.results) != 2 {
			t.Fatalf("goroutine %d: %d results, want 2", i, len(o.results))
		}
		if o.results[0].X[0] != float64(i) || o.results[1].X[0] != float64(i)+0.5 {
			t.Errorf("goroutine %d received another request's columns: %v, %v",
				i, o.results[0].X, o.results[1].X)
		}
		if o.width < 1 || o.width > goroutines {
			t.Errorf("goroutine %d: batch width %d out of range", i, o.width)
		}
	}
	if n := execs.Load(); int(n) >= goroutines {
		t.Errorf("no coalescing: %d executions for %d requests", n, goroutines)
	}
}

// TestBatcherWidthCapFiresEarly: filling the column cap seals and runs the
// batch immediately instead of waiting out the window.
func TestBatcherWidthCapFiresEarly(t *testing.T) {
	bt := newBatcher(time.Hour, 2, nil)
	var execs atomic.Int32
	start := time.Now()
	r, width, err := bt.solve(context.Background(),
		batchKey{handle: "h"}, [][]float64{{1}, {2}}, echoExec(&execs))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("full batch waited %v, want immediate fire", elapsed)
	}
	if width != 1 || len(r) != 2 {
		t.Fatalf("width %d results %d, want 1 and 2", width, len(r))
	}
}

// TestBatcherWaiterCancellation: a waiter whose context dies stops waiting
// with ctx.Err() while the batch is left to serve everyone else.
func TestBatcherWaiterCancellation(t *testing.T) {
	bt := newBatcher(time.Hour, 64, nil)
	var execs atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := bt.solve(ctx, batchKey{handle: "h"}, [][]float64{{1}}, echoExec(&execs))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
}

// TestServerBatchedSolves: concurrent solve requests against one ready
// handle coalesce into a block solve — responses report batched/batch_width,
// the serve_batched_solves_total counter advances, and every request's
// solution still solves its own right-hand side (run under -race).
func TestServerBatchedSolves(t *testing.T) {
	srv, c := newTestServer(t, Config{
		BatchWindow:   250 * time.Millisecond,
		BatchMaxWidth: 32,
		PoolSize:      1,
	})
	code, body, _ := c.do("POST", "/v1/graphs?spec=grid3d:8&wait=true", "", nil)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id := body["id"].(string)

	const requests = 4
	type out struct {
		code int
		body map[string]any
	}
	outs := make([]out, requests)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			code, body, _ := c.do("POST", "/v1/graphs/"+id+"/solve", "",
				map[string]any{"rhs": 1, "seed": i + 1, "include_x": true})
			outs[i] = out{code, body}
		}(i)
	}
	close(start)
	wg.Wait()

	h, release, err := srv.store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	_, g, _, _, _ := srv.store.solveState(h)
	release()

	batchedResponses := 0
	for i, o := range outs {
		if o.code != http.StatusOK {
			t.Fatalf("request %d: code %d body %v", i, o.code, o.body)
		}
		results := o.body["results"].([]any)
		if len(results) != 1 {
			t.Fatalf("request %d: %d results, want 1", i, len(results))
		}
		res := results[0].(map[string]any)
		if res["converged"] != true {
			t.Fatalf("request %d did not converge: %v", i, res)
		}
		if o.body["batched"] == true {
			batchedResponses++
		}
		// The returned solution must solve THIS request's right-hand side:
		// a batch mis-slice would hand back a converged solution for a
		// different seed.
		xs := res["x"].([]any)
		x := make([]float64, len(xs))
		for j, v := range xs {
			x[j] = v.(float64)
		}
		b := cli.MeanFreeRHS(g.N(), int64(i+1))
		lx := make([]float64, g.N())
		g.LapMul(lx, x)
		var rn, bn float64
		for v := range lx {
			rn += (lx[v] - b[v]) * (lx[v] - b[v])
			bn += b[v] * b[v]
		}
		if rel := math.Sqrt(rn / bn); rel > 1e-6 {
			t.Errorf("request %d: relative residual %v against its own rhs", i, rel)
		}
	}
	if batchedResponses == 0 {
		t.Fatal("no response was served from a coalesced batch")
	}
	if v := srv.Registry().Counter(metricBatchedSolves).Value(); v < 2 {
		t.Errorf("serve_batched_solves_total = %d, want >= 2", v)
	}
	if n := srv.Registry().Histogram(metricBatchWidth, batchWidthBuckets).Count(); n < 1 {
		t.Errorf("no batch width observations recorded")
	}
}

// TestSolveRejectsMalformedRHS: a right-hand side whose length is not the
// graph's dimension is the client's error — 400 under every method — and a
// malformed request never shares a micro-batch with a well-formed one, so
// the well-formed request still converges.
func TestSolveRejectsMalformedRHS(t *testing.T) {
	_, c := newTestServer(t, Config{BatchWindow: time.Second, BatchMaxWidth: 2})
	code, body, _ := c.do("POST", "/v1/graphs?spec=grid2d:8&wait=true", "", nil)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	path := "/v1/graphs/" + body["id"].(string) + "/solve"
	short := map[string]any{"b": [][]float64{{1, -1}}}

	for _, method := range []string{"pcg", "chebyshev", "resilient"} {
		// An explicit method skips the micro-batcher, so these return at
		// once.
		req := map[string]any{"b": short["b"], "method": method}
		if code, body, _ := c.do("POST", path, "bad", req); code != http.StatusBadRequest {
			t.Errorf("%s: short rhs got code %d body %v, want 400", method, code, body)
		}
	}

	type out struct {
		code int
		body map[string]any
	}
	good := make(chan out, 1)
	go func() {
		code, body, _ := c.do("POST", path, "good", map[string]any{"rhs": 1})
		good <- out{code, body}
	}()
	time.Sleep(100 * time.Millisecond) // inside the good request's batch window
	if code, body, _ := c.do("POST", path, "bad", short); code != http.StatusBadRequest {
		t.Errorf("batched short rhs got code %d body %v, want 400", code, body)
	}
	o := <-good
	if o.code != http.StatusOK {
		t.Fatalf("well-formed request next to a malformed one: code %d body %v", o.code, o.body)
	}
	for i, r := range o.body["results"].([]any) {
		if r.(map[string]any)["converged"] != true {
			t.Errorf("well-formed request result %d did not converge: %v", i, r)
		}
	}
}
