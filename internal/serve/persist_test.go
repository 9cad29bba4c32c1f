package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"hcd/internal/faultinject"
	"hcd/internal/obs"
)

// waitStatus polls a handle until it reaches want (or any terminal state
// when terminal is set) and returns the last body seen.
func waitStatus(t *testing.T, c *client, id string, want string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body, _ := c.do("GET", "/v1/graphs/"+id, "", nil)
		if code != http.StatusOK {
			t.Fatalf("poll %s: code %d body %v", id, code, body)
		}
		if body["status"] == want {
			return body
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("handle %s never reached status %q", id, want)
	return nil
}

// TestRestoreWithoutRebuild is the acceptance path: build a hierarchy under
// a state dir, kill the server, restart on the same dir — the handle must
// come back ready and solve without a single build span in the new process.
func TestRestoreWithoutRebuild(t *testing.T) {
	dir := t.TempDir()

	srvA, cA := newTestServer(t, Config{StateDir: dir})
	code, body, _ := cA.do("POST", "/v1/graphs?spec=grid3d:8&wait=true", "", nil)
	if code != http.StatusCreated || body["status"] != "ready" {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id := body["id"].(string)
	if code, body, _ = cA.do("POST", "/v1/graphs/"+id+"/solve", "", map[string]any{"rhs": 1}); code != http.StatusOK {
		t.Fatalf("solve on A: code %d body %v", code, body)
	}
	srvA.Close() // crash: no drain, durable state stays put

	tr := obs.NewTracer()
	srvB, cB := newTestServer(t, Config{StateDir: dir, Tracer: tr})
	code, body, _ = cB.do("GET", "/v1/graphs/"+id, "", nil)
	if code != http.StatusOK {
		t.Fatalf("restored handle missing: code %d body %v", code, body)
	}
	if body["status"] != "ready" {
		t.Fatalf("restored handle status %v, want ready", body["status"])
	}
	if body["restored"] != true {
		t.Fatalf("restored handle not flagged restored: %v", body)
	}

	code, body, _ = cB.do("POST", "/v1/graphs/"+id+"/solve", "", map[string]any{"rhs": 2})
	if code != http.StatusOK {
		t.Fatalf("solve on B: code %d body %v", code, body)
	}
	for _, r := range body["results"].([]any) {
		if r.(map[string]any)["converged"] != true {
			t.Fatalf("restored solve did not converge: %v", body)
		}
	}
	// Zero build work anywhere in the restored process's traces.
	for _, sp := range tr.Spans() {
		if strings.Contains(sp.Name, "build") {
			t.Errorf("restored server recorded build span %q", sp.Name)
		}
	}
	if got := srvB.Registry().Counter(metricRestoreOK).Value(); got != 1 {
		t.Errorf("restore_ok = %v, want 1", got)
	}
	// Hydration charged real bytes and the handle is no longer "restored".
	code, body, _ = cB.do("GET", "/v1/graphs/"+id, "", nil)
	if code != http.StatusOK || body["restored"] == true {
		t.Fatalf("post-hydration info: code %d body %v", code, body)
	}

	// Delete must remove the durable state too.
	if code, _, _ = cB.do("DELETE", "/v1/graphs/"+id, "", nil); code != http.StatusNoContent {
		t.Fatalf("delete: code %d", code)
	}
	snap := filepath.Join(dir, id+".snap")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(snap); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot %s still on disk after delete", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCorruptSnapshotDegradesToRebuild damages a snapshot's hierarchy data
// (graph section left intact): the restored handle must quarantine the file
// and rebuild from the recovered graph — a slower first solve, never a crash.
func TestCorruptSnapshotDegradesToRebuild(t *testing.T) {
	dir := t.TempDir()

	srvA, cA := newTestServer(t, Config{StateDir: dir})
	_, body, _ := cA.do("POST", "/v1/graphs?spec=grid3d:8&wait=true", "", nil)
	id := body["id"].(string)
	srvA.Close()

	snap := filepath.Join(dir, id+".snap")
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // the final level section's checksum
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srvB, cB := newTestServer(t, Config{StateDir: dir})
	code, body, _ := cB.do("POST", "/v1/graphs/"+id+"/solve", "", map[string]any{"rhs": 1, "wait": true})
	if code != http.StatusOK {
		t.Fatalf("solve after quarantine+rebuild: code %d body %v", code, body)
	}
	if got := srvB.Registry().Counter(metricRestoreCorrupt).Value(); got != 1 {
		t.Errorf("restore_corrupt = %v, want 1", got)
	}
	if _, err := os.Stat(snap + ".corrupt"); err != nil {
		t.Errorf("damaged snapshot not quarantined: %v", err)
	}
	// The rebuild re-persisted the handle: a third process restores clean.
	waitStatus(t, cB, id, "ready")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(snap); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rebuilt handle never re-persisted its snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestUnrecoverableSnapshotFailsHandle overwrites a snapshot wholesale:
// nothing is recoverable, so the handle must turn failed with a diagnosable
// error — and the server must keep serving everything else.
func TestUnrecoverableSnapshotFailsHandle(t *testing.T) {
	dir := t.TempDir()

	srvA, cA := newTestServer(t, Config{StateDir: dir})
	_, body, _ := cA.do("POST", "/v1/graphs?spec=grid3d:6&wait=true", "", nil)
	id := body["id"].(string)
	srvA.Close()

	snap := filepath.Join(dir, id+".snap")
	if err := os.WriteFile(snap, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, cB := newTestServer(t, Config{StateDir: dir})
	code, body, _ := cB.do("POST", "/v1/graphs/"+id+"/solve", "", map[string]any{"rhs": 1})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("solve against unrecoverable snapshot: code %d body %v", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "snapshot") {
		t.Errorf("error %q does not mention the snapshot", msg)
	}
	if _, err := os.Stat(snap + ".corrupt"); err != nil {
		t.Errorf("unrecoverable snapshot not quarantined: %v", err)
	}
	// The rest of the server is unaffected.
	if code, _, _ := cB.do("POST", "/v1/graphs?spec=grid3d:5&wait=true", "", nil); code != http.StatusCreated {
		t.Fatalf("fresh submit after quarantine: code %d", code)
	}
}

// TestCrashMidBuildLeavesConsistentState kills a server right after an
// async submit — the build may be in flight or just finished, and both
// outcomes must leave consistent durable state: either the handle is absent
// from the manifest (build never completed), or it restores ready and
// hydrates into a working solve. Never a half-written snapshot.
func TestCrashMidBuildLeavesConsistentState(t *testing.T) {
	dir := t.TempDir()

	srvA, cA := newTestServer(t, Config{StateDir: dir})
	code, body, _ := cA.do("POST", "/v1/graphs?spec=grid3d:14", "", nil) // async build
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	srvA.Close() // cancel any in-flight build, abandon the process

	srvB, cB := newTestServer(t, Config{StateDir: dir})
	for _, info := range srvB.store.List() {
		if !info.Restored {
			continue
		}
		// Whatever the manifest references must hydrate and solve cleanly.
		code, body, _ := cB.do("POST", "/v1/graphs/"+info.ID+"/solve", "", map[string]any{"rhs": 1, "wait": true})
		if code != http.StatusOK {
			t.Fatalf("restored handle %s does not solve: code %d body %v", info.ID, code, body)
		}
	}
	// The dir holds no stray temp files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s after restore", e.Name())
		}
	}
	// And the server works.
	if code, _, _ := cB.do("POST", "/v1/graphs?spec=grid3d:5&wait=true", "", nil); code != http.StatusCreated {
		t.Fatal("submit after crash restore failed")
	}
}

// TestBreakerDegradedSolve drives a handle's build to fail repeatedly until
// the circuit breaker opens, then verifies solves fall through to the
// unpreconditioned-CG rung instead of erroring.
func TestBreakerDegradedSolve(t *testing.T) {
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.BuildFail: {}, // every build attempt fails
	})
	defer restore()

	srv, c := newTestServer(t, Config{BreakerThreshold: 2})
	code, body, _ := c.do("POST", "/v1/graphs?spec=grid3d:6&wait=true", "", nil)
	if code != http.StatusCreated || body["status"] != "failed" {
		t.Fatalf("submit under BuildFail: code %d body %v", code, body)
	}
	id := body["id"].(string)

	// First solve: 422 and a background retry, which fails again and trips
	// the breaker (threshold 2).
	code, body, _ = c.do("POST", "/v1/graphs/"+id+"/solve", "", map[string]any{"rhs": 1})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("solve on failed handle: code %d body %v", code, body)
	}
	waitStatus(t, c, id, "degraded")
	if got := srv.Registry().Counter(metricBreakerOpen).Value(); got != 1 {
		t.Errorf("breaker_open = %v, want 1", got)
	}

	// Degraded solves succeed on the CG fallback rung.
	code, body, _ = c.do("POST", "/v1/graphs/"+id+"/solve", "", map[string]any{"rhs": 1})
	if code != http.StatusOK {
		t.Fatalf("degraded solve: code %d body %v", code, body)
	}
	if body["degraded"] != true {
		t.Fatalf("degraded solve not flagged: %v", body)
	}
	res := body["results"].([]any)[0].(map[string]any)
	if res["rung"] != "cg" || res["converged"] != true {
		t.Fatalf("degraded solve result %v, want converged on rung cg", res)
	}
	if got := srv.Registry().Counter(metricDegradedSolves).Value(); got < 1 {
		t.Errorf("degraded_solves = %v, want ≥ 1", got)
	}
}

// TestSnapshotWriteFailureKeepsServing injects disk failure into the
// snapshot encode: the handle must still come up ready (memory-only) with
// the failure counted, not poisoned.
func TestSnapshotWriteFailureKeepsServing(t *testing.T) {
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.SnapshotWrite: {},
	})
	defer restore()

	dir := t.TempDir()
	srv, c := newTestServer(t, Config{StateDir: dir})
	code, body, _ := c.do("POST", "/v1/graphs?spec=grid3d:6&wait=true", "", nil)
	if code != http.StatusCreated || body["status"] != "ready" {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id := body["id"].(string)
	if code, body, _ = c.do("POST", "/v1/graphs/"+id+"/solve", "", map[string]any{"rhs": 1}); code != http.StatusOK {
		t.Fatalf("solve: code %d body %v", code, body)
	}
	if got := srv.Registry().Counter(metricSnapshotWrites + `{outcome="error"}`).Value(); got != 1 {
		t.Errorf("snapshot_writes{error} = %v, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".snap")); !os.IsNotExist(err) {
		t.Error("failed snapshot write left a file behind")
	}
}

// TestTimeoutBudget504 exercises the deadline ladder: a solve whose
// ?timeout_ms budget expires mid-request must map to 504 Gateway Timeout
// (the server's own deadline), not 408.
func TestTimeoutBudget504(t *testing.T) {
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.SolveDelay: {Delay: 300 * time.Millisecond, DelayOnly: true},
	})
	defer restore()

	srv, c := newTestServer(t, Config{})
	_, body, _ := c.do("POST", "/v1/graphs?spec=grid3d:6&wait=true", "", nil)
	id := body["id"].(string)

	code, body, _ := c.do("POST", "/v1/graphs/"+id+"/solve?timeout_ms=50", "", map[string]any{"rhs": 1})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired budget: code %d body %v, want 504", code, body)
	}
	if got := srv.Registry().Counter(metricDeadlineExceeded).Value(); got != 1 {
		t.Errorf("deadline_exceeded = %v, want 1", got)
	}
}

// TestMidSolveDeadline504 expires the budget while the numeric solve is
// running (no fault injection — a real solve against a tiny budget). hcd.Do
// reports an expired context as cancelled results with a nil error, so the
// handler must recognize the expiry itself: cancelled results are never
// served as 200.
func TestMidSolveDeadline504(t *testing.T) {
	_, c := newTestServer(t, Config{})
	_, body, _ := c.do("POST", "/v1/graphs?spec=grid3d:16&wait=true", "", nil)
	id := body["id"].(string)

	code, body, _ := c.do("POST", "/v1/graphs/"+id+"/solve?timeout_ms=2", "", map[string]any{"rhs": 16})
	switch code {
	case http.StatusGatewayTimeout:
		// budget expired mid-solve: the expected outcome
	case http.StatusOK:
		// machine fast enough to finish 16 RHS inside 2ms: then every
		// result must actually be converged, none cancelled
		for _, r := range body["results"].([]any) {
			res := r.(map[string]any)
			if res["converged"] != true {
				t.Fatalf("200 with non-converged result %v — expired solves must map to 504", res)
			}
		}
	default:
		t.Fatalf("mid-solve expiry: code %d body %v, want 504 (or a fully converged 200)", code, body)
	}
}

// TestClientCancel408 drops the client mid-solve (context cancellation, not
// a deadline): the server must classify it 408 Request Timeout.
func TestClientCancel408(t *testing.T) {
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.SolveDelay: {Delay: 200 * time.Millisecond, DelayOnly: true},
	})
	defer restore()

	srv, c := newTestServer(t, Config{})
	_, body, _ := c.do("POST", "/v1/graphs?spec=grid3d:6&wait=true", "", nil)
	id := body["id"].(string)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	req := httptest.NewRequest("POST", "/v1/graphs/"+id+"/solve", strings.NewReader(`{"rhs":1}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("client cancel: code %d body %s, want 408", rec.Code, rec.Body.String())
	}
}

// TestServerCapClampsTimeout verifies Config.MaxTimeout bounds the budget a
// client may request: an extravagant ?timeout_ms is clamped to the cap and
// the request 504s once the cap expires.
func TestServerCapClampsTimeout(t *testing.T) {
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.SolveDelay: {Delay: 300 * time.Millisecond, DelayOnly: true},
	})
	defer restore()

	_, c := newTestServer(t, Config{MaxTimeout: 50 * time.Millisecond})
	// Submit without ?wait: the cap also bounds the submit, and a build
	// slowed down (say, by the race detector) would outlast it.
	code, body, _ := c.do("POST", "/v1/graphs?spec=grid3d:6", "", nil)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id := body["id"].(string)
	waitStatus(t, c, id, "ready")

	code, body, _ = c.do("POST", "/v1/graphs/"+id+"/solve?timeout_ms=60000", "", map[string]any{"rhs": 1})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("capped budget: code %d body %v, want 504", code, body)
	}
}

// TestDeleteDuringInflightSolve races an explicit delete against a solve
// that already holds the handle: the solve must finish normally on its
// pinned reference and the handle must be gone afterwards.
func TestDeleteDuringInflightSolve(t *testing.T) {
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.SolveDelay: {Delay: 150 * time.Millisecond, DelayOnly: true},
	})
	defer restore()

	_, c := newTestServer(t, Config{})
	_, body, _ := c.do("POST", "/v1/graphs?spec=grid3d:6&wait=true", "", nil)
	id := body["id"].(string)

	type result struct {
		code int
		body map[string]any
	}
	done := make(chan result, 1)
	go func() {
		code, body, _ := c.do("POST", "/v1/graphs/"+id+"/solve", "", map[string]any{"rhs": 1})
		done <- result{code, body}
	}()
	time.Sleep(50 * time.Millisecond) // solve is inside its injected stall
	if code, _, _ := c.do("DELETE", "/v1/graphs/"+id, "", nil); code != http.StatusNoContent {
		t.Fatalf("delete during solve: code %d", code)
	}
	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("in-flight solve after delete: code %d body %v", r.code, r.body)
	}
	if code, _, _ := c.do("POST", "/v1/graphs/"+id+"/solve", "", map[string]any{"rhs": 1}); code != http.StatusNotFound {
		t.Fatalf("solve after delete: code %d, want 404", code)
	}
}

// TestDrainDuringBuild retires a server while a hierarchy build is in
// flight: drain must not deadlock waiting on the background build (builds
// are not requests), and post-drain requests get 503 + Retry-After.
func TestDrainDuringBuild(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	code, _, _ := c.do("POST", "/v1/graphs?spec=grid3d:14", "", nil) // async build
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain during build: %v", err)
	}
	code, _, hdr := c.do("GET", "/v1/graphs", "", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: code %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("post-drain 503 carries no Retry-After")
	}
}

// TestHealthEndpoints covers the probe surface: healthz always answers,
// readyz flips to 503 + Retry-After once draining starts.
func TestHealthEndpoints(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	if code, body, _ := c.do("GET", "/healthz", "", nil); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: code %d body %v", code, body)
	}
	if code, body, _ := c.do("GET", "/readyz", "", nil); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("readyz: code %d body %v", code, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = srv.Drain(ctx)

	if code, _, _ := c.do("GET", "/healthz", "", nil); code != http.StatusOK {
		t.Fatal("healthz must answer while draining")
	}
	code, body, hdr := c.do("GET", "/readyz", "", nil)
	if code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("readyz while draining: code %d body %v", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining readyz carries no Retry-After")
	}
}

// TestRemovalsDurableOnReturn: a DELETE unlinks the snapshot and syncs the
// manifest before its 204, and Close waits for the snapshot removals LRU
// eviction started, so the state dir is final as soon as either returns.
func TestRemovalsDurableOnReturn(t *testing.T) {
	dir := t.TempDir()
	srv, c := newTestServer(t, Config{StateDir: dir, MaxHandles: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		code, body, _ := c.do("POST", fmt.Sprintf("/v1/graphs?spec=grid2d:%d&wait=true", 8+i), "", nil)
		if code != http.StatusCreated || body["status"] != "ready" {
			t.Fatalf("submit %d: code %d body %v", i, code, body)
		}
		ids = append(ids, body["id"].(string))
	}
	// ids[0] and ids[1] were evicted by the later submits.
	m, _ := (&persister{dir: dir}).loadManifest()
	checkGone := func(id string) {
		t.Helper()
		if _, err := os.Stat(filepath.Join(dir, id+".snap")); !os.IsNotExist(err) {
			t.Errorf("snapshot of %s still on disk (stat err %v)", id, err)
		}
		for _, e := range m.Handles {
			if e.ID == id {
				t.Errorf("manifest still lists %s", id)
			}
		}
	}
	if code, _, _ := c.do("DELETE", "/v1/graphs/"+ids[3], "", nil); code != http.StatusNoContent {
		t.Fatalf("delete: code %d", code)
	}
	m, _ = (&persister{dir: dir}).loadManifest()
	checkGone(ids[3])

	srv.Close()
	m, _ = (&persister{dir: dir}).loadManifest()
	for _, id := range []string{ids[0], ids[1], ids[3]} {
		checkGone(id)
	}
	if len(m.Handles) != 1 || m.Handles[0].ID != ids[2] {
		t.Errorf("manifest after Close lists %+v, want only %s", m.Handles, ids[2])
	}
}

// TestCloseJoinsBuilds: Close returns only after every hierarchy build the
// store started has finished, so no build outlives the in-process crash and
// writes to the state dir behind the next server's back.
func TestCloseJoinsBuilds(t *testing.T) {
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.BuildFail: {Delay: 300 * time.Millisecond, DelayOnly: true},
	})
	defer restore()
	srv, c := newTestServer(t, Config{StateDir: t.TempDir()})
	if code, body, _ := c.do("POST", "/v1/graphs?spec=grid2d:8", "", nil); code != http.StatusCreated {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for faultinject.Hits(faultinject.BuildFail) == 0 { // the build is stalled
		if time.Now().After(deadline) {
			t.Fatal("the build never reached its fault point")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "serve.(*store).build(") {
			t.Fatalf("a build goroutine outlived Close:\n%s", g)
		}
	}
}
