package resumetest

import (
	"testing"

	"nodevar/internal/rng"
	"nodevar/internal/sampling"
)

// resumeSeeds are the 8 seeds the CI interrupt job replays.
var resumeSeeds = []uint64{1, 2, 3, 5, 8, 13, 21, 34}

// smallStudy is big enough to exercise many chunks but quick enough to
// rerun per seed under -race.
func smallStudy(seed uint64) sampling.CoverageConfig {
	r := rng.New(404)
	pilot := make([]float64, 64)
	for i := range pilot {
		pilot[i] = r.Normal(100, 10)
	}
	return sampling.CoverageConfig{
		Pilot:       pilot,
		Population:  256,
		SampleSizes: []int{3, 5, 10},
		Levels:      []float64{0.80, 0.95},
		Replicates:  2000,
		Seed:        seed,
		Chunks:      16,
	}
}

// TestInterruptResume is the headline robustness gate: cancel the study
// at seeded random points, resume from the last checkpoint, and demand
// the final output be byte-identical to a run that was never
// interrupted.
func TestInterruptResume(t *testing.T) {
	for _, seed := range resumeSeeds {
		seed := seed
		t.Run("seed="+itoa(seed), func(t *testing.T) {
			t.Parallel()
			out, err := Run(Scenario{Config: smallStudy(seed), Seed: seed * 1000003})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Identical() {
				t.Fatalf("resumed result differs from reference:\nreference %v\nfinal     %v",
					out.Reference, out.Final)
			}
			if out.Interrupts == 0 {
				t.Logf("seed %d: no interrupts landed (cancel points past study end); identity still checked", seed)
			}
			t.Logf("seed %d: %d rounds, %d interrupts", seed, out.Rounds, out.Interrupts)
		})
	}
}

// TestHarnessActuallyInterrupts guards the gate against vacuity: across
// the seed set, at least one scenario must involve a real mid-study
// cancellation and resume.
func TestHarnessActuallyInterrupts(t *testing.T) {
	total := 0
	for _, seed := range resumeSeeds[:3] {
		out, err := Run(Scenario{Config: smallStudy(seed), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		total += out.Interrupts
	}
	if total == 0 {
		t.Fatal("no scenario interrupted the study; the resume path is untested")
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
