package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"nodevar/internal/checkpoint"
	"nodevar/internal/obs"
	"nodevar/internal/obs/obstest"
	"nodevar/internal/sampling"
)

func parseExec(t *testing.T, args ...string) *ExecFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	e := &ExecFlags{}
	e.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExecFlagsDefaultsAndParse(t *testing.T) {
	e := parseExec(t)
	if e.Timeout != 0 || e.Checkpoint != "" || e.Resume || e.PhaseDeadline != 0 {
		t.Errorf("defaults = %+v", e)
	}
	if err := e.Validate(); err != nil {
		t.Errorf("zero flags invalid: %v", err)
	}
	e = parseExec(t, "-timeout", "90s", "-checkpoint", "x.ckpt", "-resume", "-phase-deadline", "2m")
	if e.Timeout != 90*time.Second || e.Checkpoint != "x.ckpt" || !e.Resume || e.PhaseDeadline != 2*time.Minute {
		t.Errorf("parsed = %+v", e)
	}
	if err := e.Validate(); err != nil {
		t.Errorf("valid combination rejected: %v", err)
	}
	bad := parseExec(t, "-resume")
	if err := bad.Validate(); err == nil {
		t.Error("-resume without -checkpoint validated")
	}
}

func newTestRun(t *testing.T, flags ObsFlags) *Run {
	t.Helper()
	run, err := flags.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestRunContextTimeout(t *testing.T) {
	run := newTestRun(t, ObsFlags{LogFormat: "text"})
	ctx, stop := run.Context(&ExecFlags{Timeout: 10 * time.Millisecond})
	defer stop()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("timeout context never fired")
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("ctx.Err() = %v", ctx.Err())
	}
	if code := run.Close(ctx.Err()); code != ExitTimeout {
		t.Errorf("Close after timeout = %d, want %d", code, ExitTimeout)
	}
}

func TestRunContextSignalInterrupts(t *testing.T) {
	run := newTestRun(t, ObsFlags{LogFormat: "text"})
	ctx, stop := run.Context(&ExecFlags{Checkpoint: "x.ckpt"})
	defer stop()
	// Deliver a real SIGINT to this process; the handler must mark the
	// run interrupted and cancel the context.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGINT did not cancel the run context")
	}
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("ctx.Err() = %v", ctx.Err())
	}
	if code := run.Close(ctx.Err()); code != ExitInterrupt {
		t.Errorf("Close after SIGINT = %d, want %d", code, ExitInterrupt)
	}
}

func TestCloseStatusResolution(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		code int
	}{
		{"success", nil, ExitOK},
		{"plain failure", errors.New("boom"), ExitFailure},
		{"timeout", context.DeadlineExceeded, ExitTimeout},
		{"cancellation without signal", context.Canceled, ExitFailure},
	} {
		run := newTestRun(t, ObsFlags{LogFormat: "text"})
		if code := run.Close(tc.err); code != tc.code {
			t.Errorf("%s: Close = %d, want %d", tc.name, code, tc.code)
		}
	}
}

func TestCloseWritesInterruptedManifest(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "manifest.json")
	run := newTestRun(t, ObsFlags{LogFormat: "text", ManifestOut: manifest})
	_, stop := run.Context(&ExecFlags{
		Timeout:       time.Hour,
		Checkpoint:    "fig3.ckpt",
		Resume:        true,
		PhaseDeadline: time.Nanosecond,
	})
	// Simulate the signal path without racing a real signal: Close after
	// the handler would have recorded it.
	run.mu.Lock()
	run.status = obs.StatusInterrupted
	run.signal = "interrupt"
	run.mu.Unlock()
	stop()

	sp := run.Tracer
	if sp == nil {
		t.Fatal("manifest-enabled run has no tracer")
	}
	span := sp.Start("phase", "slow")
	time.Sleep(2 * time.Millisecond)
	span.End()

	if code := run.Close(context.Canceled); code != ExitInterrupt {
		t.Fatalf("Close = %d, want %d", code, ExitInterrupt)
	}
	f, err := os.Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := obstest.ReadManifest(f)
	if err != nil {
		t.Fatalf("interrupted manifest unreadable: %v", err)
	}
	if m.Schema != obs.ManifestSchema || m.Status != obs.StatusInterrupted {
		t.Errorf("schema %q status %q", m.Schema, m.Status)
	}
	if m.Exec == nil || m.Exec.Signal != "interrupt" || m.Exec.Checkpoint != "fig3.ckpt" || !m.Exec.Resumed {
		t.Errorf("exec section: %+v", m.Exec)
	}
	if m.Watchdog == nil || len(m.Watchdog.Overruns) == 0 {
		t.Errorf("watchdog section: %+v", m.Watchdog)
	}
}

func TestCloseDefaultStatusOK(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "manifest.json")
	run := newTestRun(t, ObsFlags{LogFormat: "text", ManifestOut: manifest})
	if code := run.Close(nil); code != ExitOK {
		t.Fatalf("Close = %d", code)
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Status string          `json:"status"`
		Exec   json.RawMessage `json:"exec"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Status != obs.StatusOK {
		t.Errorf("status %q, want ok", m.Status)
	}
	if len(m.Exec) != 0 {
		t.Errorf("plain run grew an exec section: %s", m.Exec)
	}
}

// checkpointStudy is a small coverage study for the -checkpoint tests.
func checkpointStudy(seed uint64) sampling.CoverageConfig {
	return sampling.CoverageConfig{
		Pilot:       []float64{198, 203, 207, 211, 214, 219, 222, 226},
		Population:  512,
		SampleSizes: []int{4, 8},
		Levels:      []float64{0.9},
		Replicates:  400,
		Seed:        seed,
		Chunks:      8,
	}
}

func TestStudyCheckpointMissingFileIsFreshStart(t *testing.T) {
	if resume, save, err := parseExec(t).StudyCheckpoint(); resume != nil || save != nil || err != nil {
		t.Fatalf("without -checkpoint: resume %v, save set %v, err %v", resume, save != nil, err)
	}

	path := filepath.Join(t.TempDir(), "study.ckpt")
	e := parseExec(t, "-checkpoint", path, "-resume")
	resume, save, err := e.StudyCheckpoint()
	if err != nil || resume != nil || save == nil {
		t.Fatalf("missing file: resume %v, save set %v, err %v; want a fresh start", resume, save != nil, err)
	}
	cfg := checkpointStudy(5)
	cfg.OnCheckpoint = save
	want, err := sampling.CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || want[0].Replicates != cfg.Replicates {
		t.Fatalf("fresh-start study produced %v", want)
	}

	// The completed study left its checkpoint; resuming from it runs no
	// chunk and answers the same.
	resume, _, err = e.StudyCheckpoint()
	if err != nil || resume == nil {
		t.Fatalf("written checkpoint: resume %d bytes, err %v", len(resume), err)
	}
	cfg.Resume, cfg.OnCheckpoint = resume, nil
	ran := 0
	cfg.OnChunk = func(int, int) { ran++ }
	got, err := sampling.CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Fatalf("resume from a complete checkpoint ran %d chunks", ran)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: resumed %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestStudyCheckpointRejectsCorruptAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "foreign.ckpt")
	cfg := checkpointStudy(5)
	cfg.OnCheckpoint = func(env []byte) error { return os.WriteFile(foreign, env, 0o644) }
	if _, err := sampling.CoverageStudy(cfg); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "corrupt.ckpt")
	if err := os.WriteFile(corrupt, []byte(`{"schema":"nodevar/checkpoint/v1"`), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.ckpt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		path string
		want error
	}{
		{foreign, checkpoint.ErrMismatch}, // written by seed 5, resumed by seed 6
		{corrupt, checkpoint.ErrCorrupt},
		{empty, checkpoint.ErrCorrupt},
	} {
		e := parseExec(t, "-checkpoint", tc.path, "-resume")
		resume, save, err := e.StudyCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		run := checkpointStudy(6)
		run.Resume, run.OnCheckpoint = resume, save
		_, err = sampling.CoverageStudy(run)
		err = e.CheckpointError(err)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.path, err, tc.want)
		}
		if !strings.Contains(err.Error(), tc.path) {
			t.Fatalf("%s: error %q does not name the file", tc.path, err)
		}
	}
}
