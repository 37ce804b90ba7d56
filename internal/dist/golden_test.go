package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nodevar/internal/checkpoint"
	"nodevar/internal/sampling"
)

// TestJobEnvelopeGolden decodes a committed job envelope: a frontend's
// marshaled job for testStudyConfig(7) with UseZ set, a cadence of 2 and
// the resume envelope of a run that had finished chunks 0-3 of 8. A
// worker must keep accepting it unchanged, so frontends and workers of
// neighbouring versions understand each other, and the wire must keep
// its field names.
func TestJobEnvelopeGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "job.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range fields {
		names = append(names, k)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), "checkpoint_every,chunks,fingerprint,job_id,levels,pilot,population,replicates,resume,sample_sizes,seed,use_z"; got != want {
		t.Fatalf("wire fields %s, want %s", got, want)
	}

	job, cfg, err := DecodeJobRequest(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden job rejected: %v", err)
	}
	want := testStudyConfig(7)
	want.UseZ = true
	fp := want.Fingerprint()
	if cfg.Fingerprint() != fp || cfg.Seed != want.Seed || cfg.CheckpointEvery != 2 {
		t.Fatalf("decoded config: fingerprint %016x seed %d cadence %d, want %016x 7 2",
			cfg.Fingerprint(), cfg.Seed, cfg.CheckpointEvery, fp)
	}
	if job.Fingerprint != fmt.Sprintf("%016x", fp) {
		t.Fatalf("fingerprint %q, want %016x", job.Fingerprint, fp)
	}
	if job.JobID != JobKey(7, fp) {
		t.Fatalf("job_id %q, want %q", job.JobID, JobKey(7, fp))
	}
	var prog struct {
		Chunks int `json:"chunks"`
		Done   []struct {
			Ci int `json:"ci"`
		} `json:"done"`
	}
	if err := checkpoint.Decode(job.Resume, sampling.CoverageCheckpointKind, 7, fp, &prog); err != nil {
		t.Fatalf("resume envelope: %v", err)
	}
	if prog.Chunks != 8 || len(prog.Done) != 4 {
		t.Fatalf("resume envelope holds %d of %d chunks, want 4 of 8", len(prog.Done), prog.Chunks)
	}
}
