package gio

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"hcd/internal/faultinject"
	"hcd/internal/graph"
	"hcd/internal/hierarchy"
)

// testGraph builds a connected weighted graph: a ring plus seeded random
// chords, deterministic per (n, seed).
func testGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, 2*n)
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{U: v, V: (v + 1) % n, W: 1 + rng.Float64()})
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v, W: 0.5 + rng.Float64()})
		}
	}
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		t.Fatalf("test graph: %v", err)
	}
	return g
}

func sameCSR(a, b *graph.Graph) bool {
	ao, aa, aw := a.CSR()
	bo, ba, bw := b.CSR()
	if len(ao) != len(bo) || len(aa) != len(ba) {
		return false
	}
	for i := range ao {
		if ao[i] != bo[i] {
			return false
		}
	}
	for i := range aa {
		if aa[i] != ba[i] || aw[i] != bw[i] {
			return false
		}
	}
	return true
}

func TestGraphSnapshotRoundTrip(t *testing.T) {
	for _, n := range []int{2, 7, 200} {
		g := testGraph(t, n, int64(n))
		var buf bytes.Buffer
		if err := WriteGraphSnapshot(&buf, g); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		got, err := ReadGraphSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: read: %v", n, err)
		}
		if !sameCSR(g, got) {
			t.Fatalf("n=%d: CSR arrays changed across the round trip", n)
		}
	}
}

func TestHierarchySnapshotRoundTrip(t *testing.T) {
	g := testGraph(t, 800, 42)
	opt := hierarchy.DefaultOptions()
	opt.DirectLimit = 50
	h, err := hierarchy.NewCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteHierarchySnapshot(&buf, g, h); err != nil {
		t.Fatalf("write: %v", err)
	}
	g2, h2, err := ReadHierarchySnapshot(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !sameCSR(g, g2) {
		t.Fatal("graph changed across the round trip")
	}
	if h2.Depth() != h.Depth() || h2.CoarseSize() != h.CoarseSize() {
		t.Fatalf("shape changed: depth %d→%d, coarse %d→%d", h.Depth(), h2.Depth(), h.CoarseSize(), h2.CoarseSize())
	}
	// The rebuilt hierarchy must be the same linear operator bit-for-bit:
	// assignments are persisted and everything else is deterministic.
	r := make([]float64, g.N())
	rng := rand.New(rand.NewSource(7))
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	want := make([]float64, g.N())
	got := make([]float64, g.N())
	h.Apply(want, r)
	h2.Apply(got, r)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("Apply diverges at %d: %v vs %v", i, want[i], got[i])
		}
	}
}

// TestSnapshotEveryByteFlip flips every byte of an encoded snapshot and
// requires the decoder to either reject the file as corrupt or — for the
// few bytes outside checksum coverage (section padding) — decode a graph
// identical to the original. Nothing in between, and never a panic.
func TestSnapshotEveryByteFlip(t *testing.T) {
	g := testGraph(t, 31, 3)
	var buf bytes.Buffer
	if err := WriteGraphSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x5a
		got, err := ReadGraphSnapshot(bytes.NewReader(mut))
		if err == nil {
			if !sameCSR(g, got) {
				t.Fatalf("flip at byte %d: decoded a different graph without error", i)
			}
			continue
		}
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("flip at byte %d: err = %v, want ErrCorruptSnapshot", i, err)
		}
	}
}

func TestSnapshotTruncation(t *testing.T) {
	g := testGraph(t, 20, 9)
	var buf bytes.Buffer
	if err := WriteGraphSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for cut := 0; cut < len(enc); cut++ {
		_, err := ReadGraphSnapshot(bytes.NewReader(enc[:cut]))
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrCorruptSnapshot", cut, err)
		}
	}
}

// TestHierarchySnapshotPartialRecovery corrupts the hierarchy portion of a
// snapshot while leaving the graph section intact: the reader must hand back
// the verified graph alongside the corruption error, so the serving layer
// can rebuild instead of losing the graph.
func TestHierarchySnapshotPartialRecovery(t *testing.T) {
	g := testGraph(t, 400, 5)
	opt := hierarchy.DefaultOptions()
	opt.DirectLimit = 40
	h, err := hierarchy.NewCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHierarchySnapshot(&buf, g, h); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	t.Run("corrupt level section", func(t *testing.T) {
		mut := append([]byte(nil), enc...)
		mut[len(mut)-1] ^= 0xff // last byte: final level section's checksum
		g2, h2, err := ReadHierarchySnapshot(context.Background(), bytes.NewReader(mut))
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
		}
		if h2 != nil {
			t.Fatal("returned a hierarchy from a corrupt dump")
		}
		if g2 == nil || !sameCSR(g, g2) {
			t.Fatal("intact graph section not recovered")
		}
	})

	t.Run("corrupt graph section", func(t *testing.T) {
		mut := append([]byte(nil), enc...)
		mut[40] ^= 0xff // inside the graph payload
		g2, h2, err := ReadHierarchySnapshot(context.Background(), bytes.NewReader(mut))
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
		}
		if g2 != nil || h2 != nil {
			t.Fatal("returned data from a snapshot with a corrupt graph section")
		}
	})

	t.Run("truncated after graph section", func(t *testing.T) {
		// End of the graph section: file header 16 + section header 16 +
		// padded payload + checksum 8.
		gEnd := 16 + 16 + pad8(len(encodeGraph(g))) + 8
		g2, _, err := ReadHierarchySnapshot(context.Background(), bytes.NewReader(enc[:gEnd]))
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
		}
		if g2 == nil || !sameCSR(g, g2) {
			t.Fatal("intact graph section not recovered from truncated snapshot")
		}
	})
}

func pad8(n int) int { return n + (8-n%8)%8 }

func TestSnapshotKindMismatch(t *testing.T) {
	g := testGraph(t, 10, 1)
	var buf bytes.Buffer
	if err := WriteGraphSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadHierarchySnapshot(context.Background(), bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("hierarchy read of a graph snapshot: err = %v, want ErrCorruptSnapshot", err)
	}
}

func TestSnapshotFaultInjection(t *testing.T) {
	g := testGraph(t, 12, 2)
	var buf bytes.Buffer
	if err := WriteGraphSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}

	t.Run("write", func(t *testing.T) {
		restore := faultinject.Activate(map[string]faultinject.Spec{
			faultinject.SnapshotWrite: {},
		})
		defer restore()
		var out bytes.Buffer
		if err := WriteGraphSnapshot(&out, g); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("err = %v, want ErrInjected", err)
		}
		if out.Len() != 0 {
			t.Fatal("injected write failure still produced output")
		}
	})

	t.Run("read", func(t *testing.T) {
		restore := faultinject.Activate(map[string]faultinject.Spec{
			faultinject.SnapshotRead: {},
		})
		defer restore()
		_, err := ReadGraphSnapshot(bytes.NewReader(buf.Bytes()))
		if !errors.Is(err, faultinject.ErrInjected) || !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("err = %v, want ErrInjected wrapped as ErrCorruptSnapshot", err)
		}
	})
}

// FuzzSnapshotRoundTrip feeds arbitrary bytes to both snapshot readers: they
// must never panic and never over-allocate, and anything that decodes as a
// graph must re-encode and re-decode to the identical graph.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for _, n := range []int{2, 9} {
		g := testGraph(f, n, int64(n))
		var buf bytes.Buffer
		if err := WriteGraphSnapshot(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	{
		g := testGraph(f, 120, 11)
		opt := hierarchy.DefaultOptions()
		opt.DirectLimit = 20
		if h, err := hierarchy.NewCtx(context.Background(), g, opt); err == nil {
			var buf bytes.Buffer
			if err := WriteHierarchySnapshot(&buf, g, h); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add([]byte("HCDSNAP1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if g, err := ReadGraphSnapshot(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := WriteGraphSnapshot(&buf, g); err != nil {
				t.Fatalf("re-encode of decoded graph failed: %v", err)
			}
			g2, err := ReadGraphSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !sameCSR(g, g2) {
				t.Fatal("decoded graph did not round-trip")
			}
		}
		ctx := context.Background()
		if g, h, err := ReadHierarchySnapshot(ctx, bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := WriteHierarchySnapshot(&buf, g, h); err != nil {
				t.Fatalf("re-encode of decoded hierarchy failed: %v", err)
			}
			if _, _, err := ReadHierarchySnapshot(ctx, bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("re-decode of hierarchy failed: %v", err)
			}
		}
	})
}
