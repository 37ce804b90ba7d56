package cluster

import (
	"testing"

	"nodevar/internal/power"
)

// TestTickGridExact pins the simulators' time grid: every tick at
// exactly float64(i)*dt (computed from the index, never accumulated) and
// a single final tick at exactly the duration. With an accumulating
// clock the grid drifted: at (25200 s, 0.3 s) the drifted tick just
// below 25200 survived as a near-duplicate of the endpoint (84002
// samples, last gap ~4e-8 s), and the stretched-period case drifted off
// i*dt within a few hundred ticks.
func TestTickGridExact(t *testing.T) {
	c := mustCluster(t, 4)
	cases := []struct {
		name       string
		duration   float64
		opts       RunOptions
		dt         float64
		wantLength int
	}{
		{"non-integer period, 7 h", 25200, RunOptions{SamplePeriod: 0.3}, 0.3, 84001},
		{"off-integer duration", 4000.5, RunOptions{SamplePeriod: 0.7}, 0.7, 5716},
		{"MaxSamples-stretched period", 100000, RunOptions{SamplePeriod: 1, MaxSamples: 5000}, 100000.0 / 4999, 5000},
	}
	check := func(t *testing.T, samples []power.Sample, duration, dt float64, want int) {
		t.Helper()
		if len(samples) != want {
			t.Fatalf("%d samples, want %d", len(samples), want)
		}
		for i, s := range samples[:len(samples)-1] {
			if s.Time != float64(i)*dt {
				t.Fatalf("tick %d at %v, want exactly %v", i, s.Time, float64(i)*dt)
			}
		}
		last := samples[len(samples)-1].Time
		if last != duration {
			t.Fatalf("last sample at %v, want %v", last, duration)
		}
		if gap := last - samples[len(samples)-2].Time; gap < dt/2 {
			t.Fatalf("endpoint only %v after the previous tick (dt %v)", gap, dt)
		}
	}
	for _, tc := range cases {
		t.Run("Run/"+tc.name, func(t *testing.T) {
			res, err := Run(c, constLoad{dur: tc.duration, util: 0.8}, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res.System.Samples(), tc.duration, tc.dt, tc.wantLength)
		})
		t.Run("RunPerNode/"+tc.name, func(t *testing.T) {
			load := scaledLoad{dur: tc.duration, base: 0.8, scales: []float64{1, 1, 0.9, 1.1}}
			res, err := RunPerNode(c, load, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res.System.Samples(), tc.duration, tc.dt, tc.wantLength)
		})
	}
}
