package dist

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"nodevar/internal/checkpoint"
	"nodevar/internal/sampling"
)

// FuzzJobDecode drives the worker's job-envelope decoder with arbitrary
// bodies — the exact bytes a hostile or confused frontend could POST.
// The decoder must never panic; it either rejects with a clean error
// (the worker's 400 path) or accepts, and anything it accepts must hold
// the invariants the worker relies on: a valid study configuration, a
// JobID that is honestly derived from the study's own identity, and —
// when resume state is present — an envelope stamped for exactly this
// study.
func FuzzJobDecode(f *testing.F) {
	cfg := testStudyConfig(3)
	cfg.CheckpointEvery = 2
	valid := NewJobRequest(cfg)
	validJSON, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	env, err := checkpoint.Encode(sampling.CoverageCheckpointKind, valid.Seed, mustFP(f, valid), map[string]int{"chunk": 1})
	if err != nil {
		f.Fatal(err)
	}
	cfg.Resume = env
	withResume := NewJobRequest(cfg)
	withResumeJSON, err := json.Marshal(withResume)
	if err != nil {
		f.Fatal(err)
	}

	seeds := [][]byte{
		validJSON,
		withResumeJSON,
		[]byte(`{}`),
		[]byte(`null`),
		[]byte(``),
		[]byte(`[1,2,3]`),
		[]byte(`{"job_id":"1-0000000000000000","seed":1,"fingerprint":"0","pilot":[1,2],"population":4,"sample_sizes":[2],"levels":[0.9],"replicates":1,"chunks":1}`),
		[]byte(`{"job_id":"x","bogus":true}`),
		[]byte(`{"job_id":"x","seed":18446744073709551615,"fingerprint":"ffffffffffffffff"}`),
		[]byte(`{"pilot":[1e999]}`),
		[]byte(`{"pilot":[NaN]}`),
		[]byte(`{"resume":"bm90IGFuIGVudmVsb3Bl"}`),
		[]byte("\x00\xffbinary garbage\x00"),
		[]byte(`{"job_id":"1-1","seed":1,"fingerprint":"1","pilot":[],"population":0,"sample_sizes":[],"levels":[],"replicates":0,"chunks":0}`),
		bytes.Repeat([]byte(`{"seed":1}`), 3),
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		job, cfg, err := DecodeJobRequest(bytes.NewReader(body))
		if err != nil {
			// Clean rejection: the error must render (the worker embeds it
			// in the 400 body) without panicking.
			if msg := err.Error(); msg == "" {
				t.Fatal("rejection with an empty error")
			}
			return
		}
		// Accepted: every worker invariant must hold.
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("accepted job has invalid config: %v\nbody: %q", verr, body)
		}
		fp := cfg.Fingerprint()
		if job.JobID != JobKey(job.Seed, fp) {
			t.Fatalf("accepted JobID %q != identity %q", job.JobID, JobKey(job.Seed, fp))
		}
		if job.Resume != nil {
			var probe json.RawMessage
			if derr := checkpoint.Decode(job.Resume, sampling.CoverageCheckpointKind, job.Seed, fp, &probe); derr != nil {
				t.Fatalf("accepted resume envelope fails verification: %v", derr)
			}
		}
		// Accepted envelopes re-marshal and re-decode to the same identity
		// (the frontend round-trips jobs on every failover re-dispatch).
		again, err := json.Marshal(job)
		if err != nil {
			t.Fatalf("accepted job does not re-marshal: %v", err)
		}
		job2, cfg2, err := DecodeJobRequest(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-marshaled job rejected: %v", err)
		}
		if job2.JobID != job.JobID || cfg2.Fingerprint() != fp {
			t.Fatalf("identity drifted across a round trip: %q/%016x -> %q/%016x",
				job.JobID, fp, job2.JobID, cfg2.Fingerprint())
		}
	})
}

func mustFP(f *testing.F, j JobRequest) uint64 {
	f.Helper()
	return j.CoverageConfig.Fingerprint()
}

// TestJobDecodeRegressionCorpus replays the committed corpus under
// testdata/fuzz/FuzzJobDecode on every plain `go test` run, so the
// regression inputs are exercised even when fuzzing is not.
func TestJobDecodeRegressionCorpus(t *testing.T) {
	// The corpus files are in Go's fuzz corpus format; the fuzz engine
	// replays them automatically for FuzzJobDecode. This test exists to
	// fail loudly if the corpus directory disappears.
	ents, err := os.ReadDir("testdata/fuzz/FuzzJobDecode")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("committed fuzz corpus is empty")
	}
}
