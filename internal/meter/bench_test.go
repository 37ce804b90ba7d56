package meter

import (
	"math"
	"testing"

	"nodevar/internal/power"
	"nodevar/internal/rng"
)

var sinkWatts power.Watts

// benchNodeTrace is an 1800 s node trace at the cluster simulator's 2 s
// tick: a slow thermal drift with per-tick jitter, the shape a pilot
// node's core phase has.
func benchNodeTrace(tb testing.TB) *power.Trace {
	tb.Helper()
	r := rng.New(1800)
	samples := make([]power.Sample, 0, 901)
	for x := 0.0; x <= 1800; x += 2 {
		w := 380 + 25*math.Sin(x/300) + 4*r.Float64()
		samples = append(samples, power.Sample{Time: x, Power: power.Watts(w)})
	}
	tr, err := power.NewTrace(samples)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// benchModels are the catalog's non-reference presets (internal/systems
// imports this package, so the values are restated here).
var benchModels = []struct {
	name  string
	model Model
}{
	{"periodic", Spec{GainErrorCV: 0.01, NoiseCV: 0.002, ResolutionWatts: 1, SamplePeriod: 1}},
	{"windowed", WindowedSpec{Period: 10, Window: 1, PhaseJitter: true, NoiseCV: 0.005, ResolutionWatts: 1}},
	{"occ", OCCSpec{BucketSeconds: 1, GainErrorCV: 0.01, EnvelopeFrac: 0.005, ReadoutResolutionWatts: 2}},
}

// BenchmarkMeterAveragePower times one pilot-node read per architecture:
// the instrument's average over the whole 1800 s trace.
func BenchmarkMeterAveragePower(b *testing.B) {
	tr := benchNodeTrace(b)
	for _, bm := range benchModels {
		b.Run(bm.name, func(b *testing.B) {
			inst, err := bm.model.NewInstrument(rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := inst.AveragePower(tr, tr.Start(), tr.End())
				if err != nil {
					b.Fatal(err)
				}
				sinkWatts = v
			}
		})
	}
}
