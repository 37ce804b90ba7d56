package hpl_test

import (
	"fmt"
	"math"
	"testing"

	"nodevar/internal/hpl"
	"nodevar/internal/systems"
)

// TestMatrixOrderForRuntimeGolden pins the matrix order the runtime
// search picks for every HPL preset at 1800 s, and the exact bits of the
// core duration of the run at that order. The search and Simulate share
// the factorization arithmetic; a speed-up of either must keep both
// numbers bit-identical, since every distortion-study target is built
// from them.
func TestMatrixOrderForRuntimeGolden(t *testing.T) {
	want := map[string]string{
		"colosse":    "n=582521 core=409c200082b0512d",
		"sequoia":    "n=3745569 core=409c20012ff2390a",
		"pizdaint":   "n=1433601 core=409c218296d7ffa7",
		"lcsc":       "n=568321 core=409c2a17cb45d076",
		"tsubamekfc": "n=479988 core=409c200007dda3ec",
	}
	seen := 0
	for _, spec := range systems.All() {
		if spec.HPL.BlockSize == 0 {
			continue
		}
		seen++
		n, err := hpl.MatrixOrderForRuntime(spec.HPL, 1800)
		if err != nil {
			t.Fatalf("%s: %v", spec.Key, err)
		}
		cfg := spec.HPL
		cfg.MatrixOrder = n
		run, err := hpl.Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.Key, err)
		}
		got := fmt.Sprintf("n=%d core=%016x", n, math.Float64bits(run.CoreDuration))
		if got != want[spec.Key] {
			t.Errorf("%s: %s, want %s", spec.Key, got, want[spec.Key])
		}
	}
	if seen != len(want) {
		t.Errorf("%d HPL presets, golden covers %d", seen, len(want))
	}
}

// BenchmarkMatrixOrderForRuntime times the order search a distortion
// study runs for its HPL target: the colosse preset on 256 nodes fitted
// to an 1800 s core phase.
func BenchmarkMatrixOrderForRuntime(b *testing.B) {
	spec, err := systems.ByKey("colosse")
	if err != nil {
		b.Fatal(err)
	}
	cfg := spec.HPL
	cfg.Nodes = 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hpl.MatrixOrderForRuntime(cfg, 1800); err != nil {
			b.Fatal(err)
		}
	}
}
