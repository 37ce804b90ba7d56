package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"nodevar/internal/checkpoint"
	"nodevar/internal/sampling"
)

// Worker HTTP endpoints. The job protocol is deliberately small: one
// POST that streams NDJSON frames back, one health probe.
const (
	PathCoverage = "/worker/v1/coverage"
	PathHealthz  = "/worker/v1/healthz"
)

// maxJobBytes caps a job envelope. The largest legitimate field is the
// pilot dataset (the serving layer caps it at 65536 float64s, ~1.5MB of
// JSON) plus a resume checkpoint envelope; 16MB is generous headroom,
// anything larger is hostile or confused.
const maxJobBytes = 16 << 20

// Decoder guards mirroring the serving layer's request-size bounds:
// these are the axes that buy CPU or memory on a worker, so a job
// exceeding them is rejected before any work starts.
const (
	maxJobPilot       = 1 << 20
	maxJobSampleSizes = 1024
	maxJobLevels      = 1024
	maxJobChunks      = 1 << 16
)

// JobRequest is the coverage-job envelope the frontend POSTs to a
// worker: the study itself (a worker is stateless between jobs,
// so the full configuration travels, optionally with the resume
// envelope of a previous life of the same study) plus its identity.
type JobRequest struct {
	// JobID is the idempotency key, which must equal
	// JobKey(Seed, Fingerprint); a worker answers a repeated JobID from
	// its completed-result cache.
	JobID string `json:"job_id"`
	// Fingerprint is the %016x rendering of CoverageConfig.Fingerprint()
	// and, with Seed, the study's provenance pair. The worker recomputes
	// and verifies it, so a corrupted or mislabeled job can never poison
	// the fleet-wide singleflight identity.
	Fingerprint string `json:"fingerprint"`
	sampling.CoverageConfig
}

// Frame types of the worker's NDJSON response stream.
const (
	FrameCheckpoint = "checkpoint"
	FrameResult     = "result"
	FrameError      = "error"
)

// Frame is one line of the worker's response stream: zero or more
// checkpoint frames carrying progress envelopes, terminated by exactly
// one result or error frame.
type Frame struct {
	Type string `json:"type"`
	// Done/Total report completed chunks on checkpoint frames.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Checkpoint is the progress envelope (base64 in the JSON encoding);
	// feeding it to CoverageConfig.Resume elsewhere resumes the
	// study byte-identically.
	Checkpoint []byte `json:"checkpoint,omitempty"`
	// Points is the final study output on result frames.
	Points []sampling.CoveragePoint `json:"points,omitempty"`
	// Cached marks a result replayed from the worker's idempotent
	// completed-job cache rather than recomputed.
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure on error frames.
	Error string `json:"error,omitempty"`
}

// NewJobRequest builds the envelope for cfg, resume state included.
// cfg must already be normalized (Chunks pinned); the identity stamps
// are computed here so frontend and worker always agree on the digest.
func NewJobRequest(cfg sampling.CoverageConfig) JobRequest {
	fp := cfg.Fingerprint()
	return JobRequest{
		JobID:          JobKey(cfg.Seed, fp),
		Fingerprint:    fmt.Sprintf("%016x", fp),
		CoverageConfig: cfg,
	}
}

// DecodeJobRequest strictly parses and validates a job envelope from r.
// Every failure is a clean error the worker maps to a 400 — malformed
// JSON, out-of-bound shapes, NaN/Inf values, a fingerprint or job key
// that does not match the configuration, or a resume envelope that is
// corrupt or belongs to a different study (including a stale checkpoint
// kind from an older study formulation). A job that decodes cleanly is
// safe to run under its JobID: the decoder re-derives every identity
// stamp from the configuration itself. The returned configuration is the
// job's embedded study, resume state included. A resume envelope's
// checksum is a CRC, not a MAC, so its content is the sender's word:
// the worker never caches a result computed from one.
func DecodeJobRequest(r io.Reader) (JobRequest, sampling.CoverageConfig, error) {
	var j JobRequest
	dec := json.NewDecoder(io.LimitReader(r, maxJobBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return j, sampling.CoverageConfig{}, fmt.Errorf("dist: decoding job: %w", err)
	}
	if dec.More() {
		return j, sampling.CoverageConfig{}, errors.New("dist: trailing data after job envelope")
	}
	if err := j.check(); err != nil {
		return j, sampling.CoverageConfig{}, err
	}
	return j, j.CoverageConfig, nil
}

// check validates the envelope's shapes, values and identity stamps. It
// is the post-parse half of DecodeJobRequest; the NaN/Inf guards are
// unreachable through strict JSON (which cannot encode them) but hold
// the contract for any future envelope transport that can.
func (j JobRequest) check() error {
	switch {
	case len(j.Pilot) > maxJobPilot:
		return fmt.Errorf("dist: pilot of %d nodes exceeds %d", len(j.Pilot), maxJobPilot)
	case len(j.SampleSizes) > maxJobSampleSizes:
		return fmt.Errorf("dist: %d sample sizes exceed %d", len(j.SampleSizes), maxJobSampleSizes)
	case len(j.Levels) > maxJobLevels:
		return fmt.Errorf("dist: %d levels exceed %d", len(j.Levels), maxJobLevels)
	case j.Chunks < 1 || j.Chunks > maxJobChunks:
		return fmt.Errorf("dist: chunks %d outside [1, %d]", j.Chunks, maxJobChunks)
	case j.CheckpointEvery < 0:
		return fmt.Errorf("dist: checkpoint_every %d negative", j.CheckpointEvery)
	}
	// The study validates levels are in (0,1) — which excludes NaN — but
	// pilot values are free-form there, so scan them here: a NaN or Inf
	// watt reading must be rejected at the boundary, not propagated into
	// every replicate of a cached fleet-wide result.
	for i, v := range j.Pilot {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dist: pilot[%d] is %v", i, v)
		}
	}
	for i, v := range j.Levels {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dist: levels[%d] is %v", i, v)
		}
	}

	if err := j.Validate(); err != nil {
		return err
	}

	// Identity stamps: the fingerprint the frontend computed must match
	// the configuration that arrived, and the job key must be derived
	// from that same pair.
	fp := j.CoverageConfig.Fingerprint()
	wantFP, err := strconv.ParseUint(j.Fingerprint, 16, 64)
	if err != nil {
		return fmt.Errorf("dist: fingerprint %q is not a 64-bit hex digest", j.Fingerprint)
	}
	if wantFP != fp {
		return fmt.Errorf("dist: fingerprint %s does not match the job configuration (%016x)", j.Fingerprint, fp)
	}
	if want := JobKey(j.Seed, fp); j.JobID != want {
		return fmt.Errorf("dist: job_id %q does not match the study identity %q", j.JobID, want)
	}

	// A resume envelope must already belong to this exact study: wrong
	// kind (stale formulation), wrong seed/fingerprint, or corruption
	// all refuse here, before any compute.
	if j.Resume != nil {
		var probe json.RawMessage
		if err := checkpoint.Decode(j.Resume, sampling.CoverageCheckpointKind, j.Seed, fp, &probe); err != nil {
			return fmt.Errorf("dist: resume envelope rejected: %w", err)
		}
	}
	return nil
}
