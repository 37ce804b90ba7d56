package meter

import (
	"fmt"
	"math"
	"testing"

	"nodevar/internal/power"
	"nodevar/internal/rng"
)

// irregularTrace builds a trace with uneven timestamps starting at t0 and
// a power signal that moves between samples, so every trapezoid of a
// sampled average carries a distinct term.
func irregularTrace(t *testing.T, r *rng.Rand, t0 float64, n int) *power.Trace {
	t.Helper()
	samples := make([]power.Sample, n)
	x := t0
	for i := range samples {
		samples[i] = power.Sample{Time: x, Power: power.Watts(200 + 300*r.Float64())}
		x += 0.2 + 3*r.Float64()
	}
	tr, err := power.NewTrace(samples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkAverageMatchesMeasure compares AveragePower on one instrument with
// Measure(...).Average() on its twin (same model, same seed): the values
// must agree bit for bit, the errors must agree, and both instruments
// must have consumed the same number of random draws. It returns the
// shared error.
func checkAverageMatchesMeasure(t *testing.T, spec Model, seed uint64, tr *power.Trace, a, b float64) error {
	t.Helper()
	r1, r2 := rng.New(seed), rng.New(seed)
	m1, err := spec.NewInstrument(r1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := spec.NewInstrument(r2)
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr := m1.AveragePower(tr, a, b)
	var want power.Watts
	measured, wantErr := m2.Measure(tr, a, b)
	if wantErr == nil {
		want, wantErr = measured.Average()
	}
	where := fmt.Sprintf("spec %+v seed %d window [%v, %v]", spec, seed, a, b)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: AveragePower error %v, Measure error %v", where, gotErr, wantErr)
	}
	if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
		t.Fatalf("%s: AveragePower %v (%016x), Measure().Average() %v (%016x)", where,
			got, math.Float64bits(float64(got)), want, math.Float64bits(float64(want)))
	}
	if d1, d2 := r1.Uint64(), r2.Uint64(); d1 != d2 {
		t.Fatalf("%s: instruments consumed different numbers of draws", where)
	}
	return gotErr
}

// TestAveragePowerMatchesMeasure pins the periodic and windowed
// samplers' averages to the integral of their reported traces:
// AveragePower must equal Measure(...).Average() bit for bit over random
// specs and windows, including windows on sample instants, windows just
// past the trace span (within and beyond its 1e-9 tolerance), empty and
// inverted windows, windows shorter than the windowed read phase (so
// boundary reads stand in), and a period so far below the time
// resolution that grid points collide.
func TestAveragePowerMatchesMeasure(t *testing.T) {
	r := rng.New(20260)
	periods := []float64{0, 0.3, 1, 2, 2.5, 7, 60}
	for trial := 0; trial < 200; trial++ {
		tr := irregularTrace(t, r, 100*r.Float64(), 2+r.Intn(400))
		spec := Spec{SamplePeriod: periods[r.Intn(len(periods))]}
		if r.Float64() < 0.5 {
			spec.GainErrorCV = 0.05 * r.Float64()
		}
		if r.Float64() < 0.5 {
			spec.NoiseCV = 0.05 * r.Float64()
		}
		if r.Float64() < 0.5 {
			spec.ResolutionWatts = []float64{0.5, 1, 2, 25}[r.Intn(4)]
		}
		if r.Float64() < 0.2 {
			spec.SamplePeriod = 0.05 + 20*r.Float64()
		}
		seed := r.Uint64()
		start, end := tr.Start(), tr.End()
		s := tr.Samples()
		for q := 0; q < 8; q++ {
			a := start + r.Float64()*(end-start)
			b := start + r.Float64()*(end-start)
			if a > b {
				a, b = b, a
			}
			switch q {
			case 0:
				a, b = start, end
			case 1:
				a, b = s[r.Intn(len(s))].Time, s[r.Intn(len(s))].Time
			case 2:
				a, b = start-1e-9, end+1e-9
			case 3:
				a, b = start-1e-6, end
			case 4:
				b = a
			case 5:
				a, b = b, a
			}
			checkAverageMatchesMeasure(t, spec, seed, tr, a, b)
		}
	}
	// Grid points a + i*period that round onto one another: the reported
	// trace is not strictly increasing, and both paths must say so.
	tr := irregularTrace(t, r, 500, 50)
	if err := checkAverageMatchesMeasure(t, Spec{SamplePeriod: 1e-14}, 1, tr, 501, 501+1e-12); err == nil {
		t.Error("colliding grid points accepted")
	}

	// The windowed sampler: read grid a + phase + i*Period, boxcar
	// windows from point reads up to the whole period, and boundary
	// reads at a and b where the grid misses the window's ends.
	for trial := 0; trial < 200; trial++ {
		tr := irregularTrace(t, r, 100*r.Float64(), 2+r.Intn(400))
		spec := WindowedSpec{Period: []float64{0.3, 1, 2, 2.5, 7, 60}[r.Intn(6)], PhaseJitter: r.Float64() < 0.7}
		switch r.Intn(3) {
		case 0: // point reads
		case 1:
			spec.Window = spec.Period
		case 2:
			spec.Window = spec.Period * r.Float64()
		}
		if r.Float64() < 0.5 {
			spec.GainErrorCV = 0.05 * r.Float64()
		}
		if r.Float64() < 0.5 {
			spec.NoiseCV = 0.05 * r.Float64()
		}
		if r.Float64() < 0.5 {
			spec.ResolutionWatts = []float64{0.5, 1, 2, 25}[r.Intn(4)]
		}
		seed := r.Uint64()
		start, end := tr.Start(), tr.End()
		s := tr.Samples()
		for q := 0; q < 8; q++ {
			a := start + r.Float64()*(end-start)
			b := start + r.Float64()*(end-start)
			if a > b {
				a, b = b, a
			}
			switch q {
			case 0:
				a, b = start, end
			case 1:
				a, b = s[r.Intn(len(s))].Time, s[r.Intn(len(s))].Time
			case 2:
				a, b = start-1e-9, end+1e-9
			case 3:
				a, b = start-1e-6, end
			case 4:
				b = a
			case 5:
				a, b = b, a
			case 6: // shorter than most read phases
				b = math.Min(a+spec.Period*r.Float64()/4, end)
			}
			checkAverageMatchesMeasure(t, spec, seed, tr, a, b)
		}
	}
	if err := checkAverageMatchesMeasure(t, WindowedSpec{Period: 1e-14}, 1, tr, 501, 501+1e-12); err == nil {
		t.Error("colliding windowed reads accepted")
	}
}
