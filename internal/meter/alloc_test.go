package meter

import (
	"testing"

	"nodevar/internal/rng"
)

// maxReadAllocs bounds the allocations of one average or energy read.
// The reads build no reported trace and no bucket list, and their
// cursor stays on the stack, so nothing is allocated however long the
// window; a count that grows with the window means one of those came
// back.
const maxReadAllocs = 0

// TestReadsAllocateConstant is the allocation gate on the pilot-phase
// reads: periodic and windowed AveragePower and OCC AveragePower and
// Energy must allocate at most maxReadAllocs times per call, and
// exactly as often over an 1800 s window as over a 60 s one.
func TestReadsAllocateConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gates are meaningless under the race detector")
	}
	tr := benchNodeTrace(t)
	periodic, err := New(Spec{GainErrorCV: 0.01, NoiseCV: 0.002, ResolutionWatts: 1, SamplePeriod: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	occInst, err := OCCSpec{BucketSeconds: 1, GainErrorCV: 0.01, EnvelopeFrac: 0.005, ReadoutResolutionWatts: 2}.NewInstrument(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	occ := occInst.(*OCCMeter)
	windowed, err := WindowedSpec{Period: 1, Window: 0.5, PhaseJitter: true, GainErrorCV: 0.01, NoiseCV: 0.002, ResolutionWatts: 1}.NewInstrument(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	reads := []struct {
		name string
		read func(a, b float64) error
	}{
		{"periodic AveragePower", func(a, b float64) error { _, err := periodic.AveragePower(tr, a, b); return err }},
		{"windowed AveragePower", func(a, b float64) error { _, err := windowed.AveragePower(tr, a, b); return err }},
		{"occ AveragePower", func(a, b float64) error { _, err := occ.AveragePower(tr, a, b); return err }},
		{"occ Energy", func(a, b float64) error { _, err := occ.Energy(tr, a, b); return err }},
	}
	for _, rd := range reads {
		var err error
		allocs := func(a, b float64) float64 {
			return testing.AllocsPerRun(50, func() {
				if e := rd.read(a, b); e != nil {
					err = e
				}
			})
		}
		short, long := allocs(600, 660), allocs(0, 1800)
		if err != nil {
			t.Fatalf("%s: %v", rd.name, err)
		}
		if short != long || long > maxReadAllocs {
			t.Errorf("%s: %v allocs over 60 s, %v over 1800 s; want the same, at most %d",
				rd.name, short, long, maxReadAllocs)
		}
	}
}
