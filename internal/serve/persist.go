package serve

// Durable handle state (-state-dir). The layout is a write-ahead manifest
// plus one snapshot file per handle:
//
//	<dir>/manifest.json   next handle id + one entry per persisted handle
//	<dir>/<id>.snap       gio hierarchy snapshot (graph + level assignments)
//	<dir>/*.corrupt       quarantined snapshots, kept for post-mortems
//
// Ordering rule: a snapshot file is fully written and renamed into place
// before the manifest references it, and the manifest itself is replaced
// atomically (tmp + rename). A crash at any instant therefore leaves either
// a consistent manifest or an orphaned .snap file — orphans are swept on
// restore, never trusted.
//
// Restore is lazy: the manifest re-registers handles as ready with their
// sizes, but snapshot bytes are not read (and memory not charged) until the
// first solve touches the handle. A corrupt snapshot is quarantined at that
// point — renamed aside, counted, and the handle degraded to a rebuild (when
// the graph section survived) or failed (when nothing did), never a crash.
//
// Lock ordering: persister.mu is acquired strictly before store.mu
// (syncManifest gathers entries under both); store.mu sections never call
// into the persister.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"hcd"
	"hcd/internal/gio"
)

const manifestName = "manifest.json"

// manifest is the on-disk index of persisted handles.
type manifest struct {
	Version int             `json:"version"`
	NextID  int64           `json:"next_id"`
	Handles []manifestEntry `json:"handles"`
}

// manifestEntry records what restore needs before the snapshot is read:
// identity, display sizes, the byte estimate, and the hierarchy options a
// rebuild must reuse if the snapshot's level data turns out corrupt.
type manifestEntry struct {
	ID    string               `json:"id"`
	File  string               `json:"file"`
	N     int                  `json:"n"`
	M     int                  `json:"m"`
	Bytes int64                `json:"bytes"`
	Hopt  hcd.HierarchyOptions `json:"hierarchy_options"`
}

// persister owns the state directory. All methods are safe for concurrent
// use; mu serializes manifest replacement so concurrent syncs cannot
// interleave a stale snapshot of the store over a fresh one.
type persister struct {
	dir string
	mu  sync.Mutex
}

func newPersister(dir string) (*persister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	return &persister{dir: dir}, nil
}

// loadManifest reads the manifest; a missing file is an empty state, a
// malformed one is quarantined and treated as empty (restore must not be
// fatal).
func (p *persister) loadManifest() (manifest, bool) {
	var m manifest
	data, err := os.ReadFile(filepath.Join(p.dir, manifestName))
	if err != nil {
		return m, !errors.Is(err, os.ErrNotExist)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		p.quarantine(manifestName)
		return manifest{}, true
	}
	return m, false
}

// saveManifest atomically replaces the manifest. Caller holds p.mu.
func (p *persister) saveManifest(m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(p.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(p.dir, manifestName))
}

// writeSnapshot persists a built handle: encode to <id>.snap.tmp, fsync,
// rename into place. Returns the final file name (relative to the dir).
func (p *persister) writeSnapshot(id string, g *hcd.Graph, h *hcd.Hierarchy) (string, error) {
	name := id + ".snap"
	tmp := filepath.Join(p.dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = gio.WriteHierarchySnapshot(bw, g, h)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, filepath.Join(p.dir, name)); err != nil {
		_ = os.Remove(tmp)
		return "", err
	}
	return name, nil
}

// readSnapshot hydrates a handle from its snapshot file. The three-way
// contract mirrors gio.ReadHierarchySnapshot: (g, h, nil) on success,
// (g, nil, err) when only the hierarchy portion is damaged, (nil, nil, err)
// on total corruption or I/O failure.
func (p *persister) readSnapshot(ctx context.Context, file string) (*hcd.Graph, *hcd.Hierarchy, error) {
	f, err := os.Open(filepath.Join(p.dir, file))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return gio.ReadHierarchySnapshot(ctx, bufio.NewReaderSize(f, 1<<20))
}

// quarantine renames a damaged file aside (.corrupt suffix) instead of
// deleting it, so an operator can inspect what broke. Best-effort.
func (p *persister) quarantine(file string) {
	src := filepath.Join(p.dir, file)
	if err := os.Rename(src, src+".corrupt"); err != nil {
		_ = os.Remove(src)
	}
}

// removeSnapshot deletes a handle's snapshot file. Best-effort: a leftover
// file is an orphan the next restore sweeps.
func (p *persister) removeSnapshot(file string) {
	if file != "" {
		_ = os.Remove(filepath.Join(p.dir, file))
	}
}

// sweepOrphans removes .snap files the manifest does not reference —
// the residue of crashes between a snapshot rename and its manifest sync.
func (p *persister) sweepOrphans(m manifest) {
	referenced := make(map[string]bool, len(m.Handles))
	for _, e := range m.Handles {
		referenced[e.File] = true
	}
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return
	}
	for _, de := range entries {
		name := de.Name()
		if strings.HasSuffix(name, ".snap") && !referenced[name] {
			_ = os.Remove(filepath.Join(p.dir, name))
		}
		if strings.HasSuffix(name, ".tmp") {
			_ = os.Remove(filepath.Join(p.dir, name))
		}
	}
}

// --- store integration ---

// restore re-registers every manifest entry as a ready, unhydrated handle.
// It runs once, from New, before the server accepts traffic; the snapshots
// themselves are only read when a solve first touches each handle.
func (s *store) restore() {
	if s.pst == nil {
		return
	}
	m, damaged := s.pst.loadManifest()
	if damaged {
		counter(s.reg, metricRestoreCorrupt)
	}
	s.pst.sweepOrphans(m)
	s.mu.Lock()
	if m.NextID > s.nextID {
		s.nextID = m.NextID
	}
	// Ascending id order: each PushFront leaves the newest handle at the
	// LRU front, so eviction pressure lands on the oldest restorations.
	sort.Slice(m.Handles, func(i, j int) bool { return m.Handles[i].ID < m.Handles[j].ID })
	for _, e := range m.Handles {
		if e.ID == "" || e.File == "" {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.pst.dir, e.File)); err != nil {
			counter(s.reg, metricRestoreCorrupt)
			continue
		}
		if _, dup := s.byID[e.ID]; dup {
			continue
		}
		h := &handle{
			id:       e.ID,
			ready:    closedChan,
			status:   StatusReady,
			restored: true,
			snapFile: e.File,
			n:        e.N,
			m:        e.M,
			estBytes: e.Bytes,
			hopt:     e.Hopt,
			lastUse:  s.now(),
			cancel:   func() {},
		}
		h.elem = s.lru.PushFront(h)
		s.byID[h.id] = h
		counter(s.reg, metricRestoreHandles)
	}
	s.publishLocked()
	s.mu.Unlock()
	s.syncManifest()
}

// closedChan is the pre-closed ready channel restored handles start with:
// their build already happened, in a previous process.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// syncManifest rewrites the manifest from the store's current state. The
// persister lock is held across gather + write so concurrent syncs cannot
// publish an older state over a newer one.
func (s *store) syncManifest() {
	if s.pst == nil {
		return
	}
	s.pst.mu.Lock()
	defer s.pst.mu.Unlock()
	m := manifest{Version: 1}
	s.mu.Lock()
	m.NextID = s.nextID
	for e := s.lru.Front(); e != nil; e = e.Next() {
		h := e.Value.(*handle)
		if h.snapFile == "" {
			continue
		}
		m.Handles = append(m.Handles, manifestEntry{
			ID: h.id, File: h.snapFile, Bytes: h.persistBytesLocked(),
			N: h.dimN(), M: h.dimM(), Hopt: h.hopt,
		})
	}
	s.mu.Unlock()
	if err := s.pst.saveManifest(m); err != nil {
		counter(s.reg, metricSnapshotWrites+`{outcome="manifest_error"}`)
	}
}

// ensureHydrated makes a restored handle solvable: it reads the snapshot,
// verifies it, and installs the graph, hierarchy and engine pool. Exactly
// one goroutine performs the load; concurrent solvers wait on the hydration
// channel. A snapshot whose graph section survived but whose hierarchy data
// is damaged quarantines the file and flips the handle back to building
// (the caller sees StatusBuilding and uses the normal wait path); total
// corruption quarantines and fails the handle.
func (s *store) ensureHydrated(ctx context.Context, h *handle) error {
	for {
		s.mu.Lock()
		if !h.restored || h.status != StatusReady {
			s.mu.Unlock()
			return nil
		}
		if h.hydrating != nil {
			ch := h.hydrating
			s.mu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		ch := make(chan struct{})
		h.hydrating = ch
		file := h.snapFile
		s.mu.Unlock()

		g, hier, err := s.pst.readSnapshot(ctx, file)
		s.finishHydration(ctx, h, ch, file, g, hier, err)
		return nil
	}
}

func (s *store) finishHydration(ctx context.Context, h *handle, ch chan struct{}, file string, g *hcd.Graph, hier *hcd.Hierarchy, err error) {
	defer close(ch)
	switch {
	case err == nil:
		counter(s.reg, metricRestoreOK)
		s.mu.Lock()
		h.hydrating = nil
		h.restored = false
		h.g = g
		h.h = hier
		h.pool = newEnginePool(g, hier, s.poolSize, s.gauges)
		hb := g.Bytes() + hier.MemoryBytes()
		h.bytes = hb
		s.bytes += hb
		// The hydrated bytes may breach the budget; rebalance against idle
		// handles with this one pinned.
		h.refs++
		_ = s.evictLocked(0, 0)
		h.refs--
		s.publishLocked()
		s.mu.Unlock()

	case g != nil:
		// Graph intact, hierarchy data damaged: quarantine the file and
		// rebuild the hierarchy from the recovered graph.
		counter(s.reg, metricRestoreCorrupt)
		s.pst.quarantine(file)
		buildCtx, cancel := s.buildContext()
		s.mu.Lock()
		h.hydrating = nil
		h.restored = false
		h.g = g
		h.snapFile = ""
		h.status = StatusBuilding
		h.buildErr = nil
		h.ready = make(chan struct{})
		h.cancel = cancel
		s.startBuildLocked(buildCtx, h, h.hopt)
		s.mu.Unlock()
		s.syncManifest()

	default:
		// Nothing recoverable: quarantine and fail the handle so clients
		// get a diagnosable 422, not a crash loop.
		counter(s.reg, metricRestoreCorrupt)
		s.pst.quarantine(file)
		s.mu.Lock()
		h.hydrating = nil
		h.restored = false
		h.snapFile = ""
		h.status = StatusFailed
		h.buildErr = fmt.Errorf("serve: snapshot unrecoverable: %w", err)
		s.mu.Unlock()
		s.syncManifest()
	}
}

// persistHandle writes a freshly built handle's snapshot. Called from the
// build goroutine after a successful construction, before the handle is
// published ready — so a submit with ?wait=true implies the state is
// durable. Failures are counted and leave the handle memory-only.
func (s *store) persistHandle(h *handle, g *hcd.Graph, hier *hcd.Hierarchy) string {
	if s.pst == nil {
		return ""
	}
	file, err := s.pst.writeSnapshot(h.id, g, hier)
	if err != nil {
		counter(s.reg, metricSnapshotWrites+`{outcome="error"}`)
		return ""
	}
	counter(s.reg, metricSnapshotWrites+`{outcome="ok"}`)
	return file
}
