// Package serve implements solve-as-a-service over the hcd library: an HTTP
// server that caches submitted graphs with their multilevel Steiner
// hierarchies (the expensive artifact), keeps pools of warm solve engines
// per graph, and gates solve traffic through per-tenant token-bucket
// admission control. The handlers execute the same hcd.Do request path as
// the CLI tools — the server adds caching, pooling, and tenancy, not a
// second solver.
package serve

import (
	"context"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hcd"
	"hcd/internal/obs"
)

// Config tunes a Server. The zero value serves with the defaults noted on
// each field.
type Config struct {
	// MaxHandles caps cached graphs (default 32); inserting past it evicts
	// the least recently used idle handle.
	MaxHandles int
	// MaxBytes budgets the cached graphs + hierarchies in bytes
	// (default 1 GiB).
	MaxBytes int64
	// PoolSize is the number of warm engines kept per ready handle
	// (default 2) — the solve concurrency one graph sustains without
	// engine rebuilds.
	PoolSize int
	// MaxBodyBytes bounds request bodies (default 256 MiB).
	MaxBodyBytes int64
	// Hierarchy is the default build configuration; per-submit query
	// parameters override it. Zero value = hcd.DefaultHierarchyOptions.
	Hierarchy hcd.HierarchyOptions
	// AutoShardVertices turns on sharded hierarchy builds for submissions
	// of at least this many vertices when the build options do not set a
	// shard count themselves; the shard count follows the worker count.
	// Default 200 000; negative disables auto-sharding.
	AutoShardVertices int
	// Admission tunes the per-tenant token buckets.
	Admission AdmissionConfig
	// StateDir, when non-empty, makes handles durable: built hierarchies
	// are snapshotted there (write-ahead manifest + one checksummed
	// snapshot file per handle) and re-registered on restart, hydrating
	// lazily on first use. Empty = memory-only.
	StateDir string
	// BreakerThreshold is the consecutive-build-failure count at which a
	// handle's circuit breaker opens and solves degrade to raw CG instead
	// of erroring (default 3; negative disables the breaker — handles then
	// stay failed forever).
	BreakerThreshold int
	// MaxTimeout caps the per-request deadline budget. Requests opt into a
	// deadline with ?timeout_ms=; the effective deadline is min(requested,
	// MaxTimeout). When MaxTimeout is set it also applies to requests that
	// ask for nothing. Zero = no server-imposed deadline.
	MaxTimeout time.Duration
	// BatchWindow enables micro-batched solves: PCG requests against the
	// same ready handle (and the same tolerance/budget) that arrive within
	// this window are coalesced into one block solve on one engine. The
	// first request in a batch waits up to the full window, so keep it small
	// relative to a solve (hundreds of microseconds to a few milliseconds).
	// Zero disables batching (the default).
	BatchWindow time.Duration
	// BatchMaxWidth caps the columns coalesced into one batch; a full batch
	// fires without waiting out the window (default 16). Only meaningful
	// when BatchWindow > 0.
	BatchMaxWidth int
	// Registry receives the serve_* metric family (nil = a fresh registry;
	// it also backs the mounted /metrics endpoints).
	Registry *obs.Registry
	// Tracer, when non-nil, records per-request and build spans.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives one structured access-log record per
	// request (route, code, tenant, duration, trace/span IDs, handle,
	// outcome, batch width). Nil disables logging with zero per-request
	// overhead — the `-log-json` / `-log-level` flags of hcd-server
	// construct this.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxHandles <= 0 {
		c.MaxHandles = 32
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 1 << 30
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 2
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.Hierarchy == (hcd.HierarchyOptions{}) {
		c.Hierarchy = hcd.DefaultHierarchyOptions()
	}
	if c.AutoShardVertices == 0 {
		c.AutoShardVertices = 200_000
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.BatchWindow > 0 && c.BatchMaxWidth <= 0 {
		c.BatchMaxWidth = 16
	}
	return c
}

// Server is the solve-as-a-service front end. Create with New, expose with
// Handler, retire with Drain.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	tr    *obs.Tracer
	log   *slog.Logger // nil = access logging disabled (the zero-alloc path)
	store *store
	adm   *admission
	mux   *http.ServeMux
	batch *batcher // nil unless Config.BatchWindow > 0

	draining   atomic.Bool
	ready      atomic.Bool // restore finished; /readyz gates on it
	inflight   sync.WaitGroup
	persistErr error // set once in New when the state dir is unusable
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		reg: cfg.Registry,
		tr:  cfg.Tracer,
		log: cfg.Logger,
		adm: newAdmission(cfg.Admission),
		mux: http.NewServeMux(),
	}
	s.batch = newBatcher(cfg.BatchWindow, cfg.BatchMaxWidth, cfg.Registry)
	s.store = newStore(cfg.MaxHandles, cfg.MaxBytes, cfg.PoolSize, cfg.Hierarchy, s.reg, s.tr)
	s.store.autoShard = cfg.AutoShardVertices
	s.store.breaker = cfg.BreakerThreshold
	if cfg.StateDir != "" {
		pst, err := newPersister(cfg.StateDir)
		if err != nil {
			// Persistence is an enhancement, not a prerequisite: an unusable
			// state dir serves memory-only and surfaces through /readyz.
			s.persistErr = err
		} else {
			s.store.pst = pst
			s.store.restore()
		}
	}
	s.ready.Store(true)
	s.routes()
	return s
}

// Handler returns the server's HTTP handler: the v1 API plus the mounted
// diagnostics mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the metric registry (tests and the benchmark read
// counters directly instead of scraping /metrics).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Drain retires the server gracefully: new requests are refused with 503
// (Connection: close) while requests already in flight run to completion.
// It returns when the server is idle — no request in flight, no hierarchy
// build or snapshot removal running — or ctx expires; pair it with
// http.Server.Shutdown, which handles the listener side.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.store.bg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close abandons the server abruptly: in-flight hierarchy builds are
// cancelled and engine pools dropped, with no drain and no durable-state
// cleanup — snapshots and the manifest stay exactly as the last sync left
// them. It is the in-process analogue of kill -9, used by crash-recovery
// tests and the chaos battery; production shutdown pairs Drain with
// http.Server.Shutdown instead. Close does wait for the goroutines the store
// already started — the cancelled builds and the snapshot removals of
// evictions — and starts no new ones, so no store goroutine outlives it.
func (s *Server) Close() {
	s.draining.Store(true)
	s.store.closeAll()
	s.store.bg.Wait()
}
