package sampling

import (
	"context"
	"errors"
	"testing"

	"nodevar/internal/checkpoint"
)

// ctxStudyConfig is a 16-chunk study whose checkpoints land in *last.
func ctxStudyConfig(last *[]byte) CoverageConfig {
	cfg := defaultCoverageConfig()
	cfg.Replicates = 1600
	cfg.Chunks = 16
	cfg.OnCheckpoint = func(env []byte) error {
		*last = env
		return nil
	}
	return cfg
}

func TestCoverageStudyCtxCanceledReturnsPartial(t *testing.T) {
	var last []byte
	cfg := ctxStudyConfig(&last)
	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnChunk = func(done, total int) {
		if done == 3 {
			cancel()
		}
	}
	pts, err := CoverageStudyCtx(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(pts) != len(cfg.SampleSizes)*len(cfg.Levels) {
		t.Fatalf("got %d partial points, want %d", len(pts), len(cfg.SampleSizes)*len(cfg.Levels))
	}
	for _, p := range pts {
		if p.Replicates <= 0 || p.Replicates >= cfg.Replicates {
			t.Fatalf("partial point claims %d replicates of %d; want a genuine partial count",
				p.Replicates, cfg.Replicates)
		}
		if p.Coverage < 0 || p.Coverage > 1 {
			t.Fatalf("partial coverage %v outside [0,1]", p.Coverage)
		}
	}

	// The flushed checkpoint must decode under the same config...
	var prog struct {
		Chunks int `json:"chunks"`
		Done   []struct {
			Ci int `json:"ci"`
		} `json:"done"`
	}
	if err := checkpoint.Decode(last, "sampling/coverage-study/v2", cfg.Seed, cfg.Fingerprint(), &prog); err != nil {
		t.Fatalf("flushed checkpoint does not decode: %v", err)
	}
	if prog.Chunks != 16 || len(prog.Done) == 0 || len(prog.Done) >= 16 {
		t.Fatalf("checkpoint records %d/%d chunks; want a genuine partial set", len(prog.Done), prog.Chunks)
	}

	// ...and resuming it to completion matches an uninterrupted run.
	resumeCfg := cfg
	resumeCfg.OnChunk = nil
	resumeCfg.Resume = last
	resumed, err := CoverageStudyCtx(context.Background(), resumeCfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	clean := cfg
	clean.OnCheckpoint, clean.OnChunk = nil, nil
	ref, err := CoverageStudy(clean)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for i := range ref {
		if resumed[i] != ref[i] {
			t.Fatalf("resumed point %d differs: %+v != %+v", i, resumed[i], ref[i])
		}
	}
}

func TestCoverageStudyResumeRejectsChangedConfig(t *testing.T) {
	var last []byte
	cfg := ctxStudyConfig(&last)
	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnChunk = func(done, total int) {
		if done == 2 {
			cancel()
		}
	}
	if _, err := CoverageStudyCtx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup run: err = %v, want context.Canceled", err)
	}

	changed := cfg
	changed.OnChunk = nil
	changed.Resume = last
	changed.SampleSizes = append([]int{2}, cfg.SampleSizes...)
	_, err := CoverageStudyCtx(context.Background(), changed)
	if !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("resume under changed config: err = %v, want checkpoint.ErrMismatch", err)
	}
}

// TestCoverageStudyCheckpointSinkErrorFails: progress the sink could not
// save fails the study instead of passing for safe.
func TestCoverageStudyCheckpointSinkErrorFails(t *testing.T) {
	cfg := defaultCoverageConfig()
	cfg.Replicates = 400
	sinkErr := errors.New("disk full")
	cfg.OnCheckpoint = func([]byte) error { return sinkErr }
	if _, err := CoverageStudy(cfg); !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want the checkpoint sink's error", err)
	}
}
