package methodology_test

import (
	"testing"

	"nodevar/internal/core"
	"nodevar/internal/methodology"
	"nodevar/internal/systems"
)

var sinkReport *methodology.DistortionReport

// BenchmarkCompareMeters times one distortion study as /v1/distortion
// computes it on a cache miss: the colosse target on 256 nodes is
// simulated (core.DistortionTarget), then the revenue, windowed and occ
// presets are compared against the reference meter with a 48-node pilot.
// The target build is inside the timed loop because the served path pays
// it on every study; hpl.Simulate and the cluster run have their own
// benchmarks.
func BenchmarkCompareMeters(b *testing.B) {
	var models []methodology.NamedModel
	for _, key := range []string{"revenue", "windowed", "occ"} {
		p, err := systems.MeterByKey(key)
		if err != nil {
			b.Fatal(err)
		}
		models = append(models, methodology.NamedModel{Name: p.Key, Model: p.Model})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		target, err := core.DistortionTarget("colosse", 256, 1, 2015)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := methodology.CompareMeters(target, models, methodology.DistortionConfig{PilotNodes: 48, Seed: 2015})
		if err != nil {
			b.Fatal(err)
		}
		sinkReport = rep
	}
}
