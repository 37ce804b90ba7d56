package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"nodevar/internal/checkpoint"
	"nodevar/internal/rng"
	"nodevar/internal/sampling"
)

// testStudyConfig is a small, fast coverage study used across the dist
// package tests. Chunks is always set explicitly: the dist layer pins
// the decomposition so remote and local runs agree on RNG streams.
func testStudyConfig(seed uint64) sampling.CoverageConfig {
	r := rng.New(99)
	pilot := make([]float64, 48)
	for i := range pilot {
		pilot[i] = r.Normal(209.88, 5.31)
	}
	return sampling.CoverageConfig{
		Pilot:       pilot,
		Population:  1024,
		SampleSizes: []int{4, 8},
		Levels:      []float64{0.9},
		Replicates:  400,
		Seed:        seed,
		Chunks:      8,
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestJobRequestRoundTrip(t *testing.T) {
	cfg := testStudyConfig(42)
	cfg.CheckpointEvery = 2
	job := NewJobRequest(cfg)
	if want := JobKey(cfg.Seed, cfg.Fingerprint()); job.JobID != want {
		t.Fatalf("JobID = %q, want %q", job.JobID, want)
	}
	got, gotCfg, err := DecodeJobRequest(bytes.NewReader(mustMarshal(t, job)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.JobID != job.JobID || got.Seed != job.Seed || got.Fingerprint != job.Fingerprint {
		t.Fatalf("identity fields mangled: %+v", got)
	}
	if gotCfg.Fingerprint() != cfg.Fingerprint() {
		t.Fatalf("decoded config fingerprint %016x != %016x", gotCfg.Fingerprint(), cfg.Fingerprint())
	}
	if gotCfg.CheckpointEvery != 2 {
		t.Fatalf("CheckpointEvery = %d, want 2", gotCfg.CheckpointEvery)
	}
}

func TestJobRequestResumeRoundTrip(t *testing.T) {
	cfg := testStudyConfig(42)
	env, err := checkpoint.Encode(sampling.CoverageCheckpointKind, cfg.Seed, cfg.Fingerprint(), map[string]int{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Resume = env
	job := NewJobRequest(cfg)
	if _, _, err := DecodeJobRequest(bytes.NewReader(mustMarshal(t, job))); err != nil {
		t.Fatalf("valid resume envelope rejected: %v", err)
	}
}

func TestDecodeJobRequestRejects(t *testing.T) {
	cfg := testStudyConfig(42)
	cfg.CheckpointEvery = 2
	good := NewJobRequest(cfg)

	mutate := func(f func(*JobRequest)) []byte {
		j := good
		j.Pilot = append([]float64(nil), good.Pilot...)
		j.Levels = append([]float64(nil), good.Levels...)
		f(&j)
		b, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	wrongSeedEnv, err := checkpoint.Encode(sampling.CoverageCheckpointKind, cfg.Seed+1, cfg.Fingerprint(), map[string]int{})
	if err != nil {
		t.Fatal(err)
	}
	wrongKindEnv, err := checkpoint.Encode("sampling/other/v1", cfg.Seed, cfg.Fingerprint(), map[string]int{})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"malformed json", []byte(`{"job_id": `), "decoding job"},
		{"unknown field", []byte(`{"job_id":"x","bogus":1}`), "unknown field"},
		{"trailing data", append(mustMarshal(t, good), []byte(`{"again":true}`)...), "trailing data"},
		{"zero chunks", mutate(func(j *JobRequest) { j.Chunks = 0 }), "chunks"},
		{"huge chunks", mutate(func(j *JobRequest) { j.Chunks = maxJobChunks + 1 }), "chunks"},
		{"negative cadence", mutate(func(j *JobRequest) { j.CheckpointEvery = -1 }), "checkpoint_every"},
		{"invalid study", mutate(func(j *JobRequest) { j.Replicates = 0 }), "replicates"},
		{"non-hex fingerprint", mutate(func(j *JobRequest) { j.Fingerprint = "zzzz" }), "not a 64-bit hex digest"},
		{"wrong fingerprint", mutate(func(j *JobRequest) { j.Fingerprint = "00000000deadbeef" }), "does not match"},
		{"tampered config", mutate(func(j *JobRequest) { j.Replicates++ }), "does not match"},
		{"wrong job id", mutate(func(j *JobRequest) { j.JobID = "1-0000000000000000" }), "does not match the study identity"},
		{"resume wrong seed", mutate(func(j *JobRequest) { j.Resume = wrongSeedEnv }), "resume envelope rejected"},
		{"resume stale kind", mutate(func(j *JobRequest) { j.Resume = wrongKindEnv }), "resume envelope rejected"},
		{"resume corrupt", mutate(func(j *JobRequest) { j.Resume = []byte(`{"not":"an envelope"}`) }), "resume envelope rejected"},
	}
	for _, tc := range cases {
		_, _, err := DecodeJobRequest(bytes.NewReader(tc.body))
		if err == nil {
			t.Fatalf("%s: decode accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestJobCheckRejectsNaNAndInf(t *testing.T) {
	// Strict JSON cannot carry NaN/Inf, so these guards are exercised at
	// the validation layer the decoder delegates to.
	cfg := testStudyConfig(42)
	cases := []struct {
		name string
		f    func(*JobRequest)
		want string
	}{
		{"nan pilot", func(j *JobRequest) { j.Pilot[3] = math.NaN() }, "pilot[3]"},
		{"inf pilot", func(j *JobRequest) { j.Pilot[0] = math.Inf(1) }, "pilot[0]"},
		{"nan level", func(j *JobRequest) { j.Levels[0] = math.NaN() }, "levels[0]"},
		{"neg inf level", func(j *JobRequest) { j.Levels[0] = math.Inf(-1) }, "levels[0]"},
	}
	for _, tc := range cases {
		j := NewJobRequest(cfg)
		j.Pilot = append([]float64(nil), cfg.Pilot...)
		j.Levels = append([]float64(nil), cfg.Levels...)
		tc.f(&j)
		err := j.check()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestDecodeJobRequestShapeBounds(t *testing.T) {
	cfg := testStudyConfig(1)
	for name, f := range map[string]func(*JobRequest){
		"pilot":        func(j *JobRequest) { j.Pilot = make([]float64, maxJobPilot+1) },
		"sample sizes": func(j *JobRequest) { j.SampleSizes = make([]int, maxJobSampleSizes+1) },
		"levels":       func(j *JobRequest) { j.Levels = make([]float64, maxJobLevels+1) },
	} {
		j := NewJobRequest(cfg)
		f(&j)
		if _, _, err := DecodeJobRequest(bytes.NewReader(mustMarshal(t, j))); err == nil || !strings.Contains(err.Error(), "exceed") {
			t.Fatalf("oversize %s: err = %v", name, err)
		}
	}
}

func TestPointJSONPreservesFloat64Bits(t *testing.T) {
	// Awkward values: subnormal-adjacent, repeating binary fractions,
	// extremes of the exponent range. The wire format must round-trip all
	// of them to the exact same bits — this is the foundation of the
	// byte-identical failover guarantee.
	vals := []float64{0.1, 2.0 / 3.0, math.Pi, 5e-324, math.MaxFloat64, 1e-308, 0.49999999999999994}
	for _, v := range vals {
		p := sampling.CoveragePoint{Level: v, Coverage: v / 3, MeanRelWidth: v * 0.7}
		b := mustMarshal(t, p)
		var got sampling.CoveragePoint
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		for i, pair := range [][2]float64{{p.Level, got.Level}, {p.Coverage, got.Coverage}, {p.MeanRelWidth, got.MeanRelWidth}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("field %d of %v: bits %016x -> %016x", i, v, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
			}
		}
	}
}

func TestJobKeyFormat(t *testing.T) {
	if got, want := JobKey(7, 0xdeadbeef), fmt.Sprintf("%d-%016x", 7, uint64(0xdeadbeef)); got != want {
		t.Fatalf("JobKey = %q, want %q", got, want)
	}
}
