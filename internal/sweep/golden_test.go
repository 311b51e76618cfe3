package sweep

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lowlat/internal/routing"
	"lowlat/internal/store"
	"lowlat/internal/tmgen"
	"lowlat/internal/topo"
)

// pinnedNets are the small and medium zoo nets of the benchmark's cold
// sweep; pinning them covers every scheme's solve path on the nets the
// solver optimizations are measured on.
var pinnedNets = []string{
	"ring-12", "wheel-12", "star-12", "clique-8", "double-ring-8", "ladder-6",
	"chord-ring-16-2", "mesh-16-sparse", "grid-3x4", "ring-20", "ladder-8", "grid-4x4",
}

// pinnedZooMaxNodes bounds the zoo nets whose calibrated matrices are
// pinned: calibrating the whole zoo takes minutes.
const pinnedZooMaxNodes = 24

// checkPinned compares got with testdata/name byte for byte, rewriting
// the file when UPDATE_GOLDEN=1.
func checkPinned(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs:\ngot:  %s\nwant: %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", name, len(gl), len(wl))
}

// TestPinnedCellOutputs pins every cell key and stored result line of a
// sweep over the pinned nets (2 seeds, every scheme at two headrooms),
// so solver optimizations provably change no byte of any result.
func TestPinnedCellOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("216 cell solves")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	grid := Grid{Nets: pinnedNets, Seeds: []int64{1, 2}, Schemes: routing.SchemeNames(), Headrooms: []float64{0, 0.1}}
	rep, err := Run(context.Background(), st, grid, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Computed != rep.Planned || rep.Planned != len(pinnedNets)*2*9 {
		t.Fatalf("computed %d of %d planned cells", rep.Computed, rep.Planned)
	}
	var buf bytes.Buffer
	for _, r := range st.Results() {
		b, err := store.MarshalResult(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	checkPinned(t, "pinned_cells.jsonl", buf.Bytes())
}

// TestPinnedZooMatrices pins the calibrated matrix digest of every zoo
// net of at most pinnedZooMaxNodes nodes at seed 1 and the default
// operating point (the matrices GenerateMatrix builds for a sweep).
func TestPinnedZooMatrices(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates dozens of zoo nets")
	}
	grid := Grid{}.withDefaults()
	var buf bytes.Buffer
	for _, e := range topo.Zoo() {
		g := e.Build()
		if g.NumNodes() > pinnedZooMaxNodes {
			continue
		}
		res, err := tmgen.Generate(g, tmgen.Config{Seed: 1, Locality: grid.Locality, TargetMaxUtil: grid.Load})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintf(&buf, "%s %s\n", e.Name, store.MatrixDigest(g, res.Matrix))
	}
	checkPinned(t, "pinned_zoo_matrices.txt", buf.Bytes())
}
