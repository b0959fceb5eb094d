package reconcile_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/sociograph/reconcile"
)

// graphFiles writes g1/g2 to dir in the given format and returns the paths.
func graphFiles(t *testing.T, dir, tag string, g1, g2 *reconcile.Graph, mappable bool) (string, string) {
	t.Helper()
	write := func(name string, g *reconcile.Graph) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		var werr error
		if mappable {
			werr = reconcile.WriteGraphMapped(f, g)
		} else {
			werr = reconcile.WriteGraphBinary(f, g)
		}
		if werr != nil {
			t.Fatal(werr)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return write("g1."+tag, g1), write("g2."+tag, g2)
}

// graphBytes returns g's canonical legacy encoding, the equality yardstick
// across formats and backings.
func graphBytes(t *testing.T, g *reconcile.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reconcile.WriteGraphBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMappedRangedRestoreMatrix pins that a mid-run checkpoint restores and
// resumes bit-identically under every graph backing (mmap-served mappable
// file, heap-decoded mappable file, heap-decoded legacy file,
// mmap-API-opened legacy file). One reference run on the original
// in-memory graphs anchors every cell.
func TestMappedRangedRestoreMatrix(t *testing.T) {
	g1, g2, seeds := snapshotInstance(t)
	opts := []reconcile.Option{reconcile.WithSeeds(seeds), reconcile.WithIterations(3)}

	ref, err := reconcile.New(g1, g2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.NewPairs) == 0 {
		t.Fatal("reference run found nothing; instance too weak")
	}
	chain := writeChain(t, g1, g2, opts)
	wantG1, wantG2 := graphBytes(t, g1), graphBytes(t, g2)

	dir := t.TempDir()
	m1, m2 := graphFiles(t, dir, "rgmm", g1, g2, true)
	l1, l2 := graphFiles(t, dir, "legacy", g1, g2, false)

	backings := []struct {
		name       string
		p1, p2     string
		mapped     bool // load through OpenGraphMapped
		wantMapped bool // and expect a live mapping
	}{
		{"mapped-mappable", m1, m2, true, reconcile.MmapSupported},
		{"mapped-legacy", l1, l2, true, false},
		{"heap-mappable", m1, m2, false, false},
		{"heap-legacy", l1, l2, false, false},
	}
	for _, b := range backings {
		t.Run(b.name, func(t *testing.T) {
			var lg1, lg2 *reconcile.Graph
			if b.mapped {
				mg1, err := reconcile.OpenGraphMapped(b.p1)
				if err != nil {
					t.Fatal(err)
				}
				defer mg1.Close()
				mg2, err := reconcile.OpenGraphMapped(b.p2)
				if err != nil {
					t.Fatal(err)
				}
				defer mg2.Close()
				if mg1.Mapped() != b.wantMapped {
					t.Fatalf("Mapped() = %v, want %v", mg1.Mapped(), b.wantMapped)
				}
				if lg1, err = mg1.Acquire(); err != nil {
					t.Fatal(err)
				}
				defer mg1.Release()
				if lg2, err = mg2.Acquire(); err != nil {
					t.Fatal(err)
				}
				defer mg2.Release()
			} else {
				for _, load := range []struct {
					path string
					into **reconcile.Graph
				}{{b.p1, &lg1}, {b.p2, &lg2}} {
					f, err := os.Open(load.path)
					if err != nil {
						t.Fatal(err)
					}
					*load.into, err = reconcile.ReadGraphBinary(f)
					f.Close()
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			if !bytes.Equal(graphBytes(t, lg1), wantG1) || !bytes.Equal(graphBytes(t, lg2), wantG2) {
				t.Fatal("loaded graphs are not bit-identical to the originals")
			}

			// "r1" is the one-record-per-checkpoint chain.
			t.Run("r1", func(t *testing.T) {
				restored, err := reconcile.RestoreSessionState(lg1, lg2, replayChain(t, chain, len(chain)/2))
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				got, err := restored.Resume(context.Background())
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatal("resumed run diverged from the reference")
				}
			})
		})
	}
}

// TestGraphFormatInterop pins the two-way format bridge: ReadGraphBinary
// sniffs and decodes the mappable container, OpenGraphMapped serves legacy
// files from the heap, and a clone of a mapped graph written back in either
// format reproduces the original bytes.
func TestGraphFormatInterop(t *testing.T) {
	g1, _, _ := snapshotInstance(t)
	legacy := graphBytes(t, g1)

	var mapped bytes.Buffer
	if err := reconcile.WriteGraphMapped(&mapped, g1); err != nil {
		t.Fatal(err)
	}
	back, err := reconcile.ReadGraphBinary(bytes.NewReader(mapped.Bytes()))
	if err != nil {
		t.Fatalf("ReadGraphBinary on a mappable stream: %v", err)
	}
	if !bytes.Equal(graphBytes(t, back), legacy) {
		t.Fatal("mappable container round-trip lost bits")
	}

	// Truncated mappable input is rejected by the sniffing reader too.
	if _, err := reconcile.ReadGraphBinary(bytes.NewReader(mapped.Bytes()[:mapped.Len()-3])); err == nil {
		t.Fatal("accepted a truncated mappable stream")
	}

	// OpenGraphMapped on a legacy file: heap-backed, same graph, and the
	// lifetime protocol still applies.
	path := filepath.Join(t.TempDir(), "legacy.g")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	mg, err := reconcile.OpenGraphMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if mg.Mapped() {
		t.Fatal("legacy file reported as mapped")
	}
	g, err := mg.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(graphBytes(t, g), legacy) {
		t.Fatal("legacy file through OpenGraphMapped lost bits")
	}
	mg.Release()
	if err := mg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.Acquire(); !errors.Is(err, reconcile.ErrGraphClosed) {
		t.Fatalf("Acquire after Close: err = %v, want ErrGraphClosed", err)
	}
	if mg.Graph() != nil {
		t.Fatal("Graph() non-nil after Close")
	}
}
