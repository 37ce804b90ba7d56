package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"nodevar/internal/parallel"
	"nodevar/internal/systems"
)

// withTestRunner installs a throwaway experiment for the duration of one
// test. Safe because the registry is only mutated before the test body's
// concurrency starts.
func withTestRunner(t *testing.T, id ID, r Runner) {
	t.Helper()
	if _, exists := registry[id]; exists {
		t.Fatalf("test runner id %q collides with a real experiment", id)
	}
	registry[id] = r
	t.Cleanup(func() { delete(registry, id) })
}

func TestRunCtxRecoversRunnerPanic(t *testing.T) {
	withTestRunner(t, "panic-direct", func(ctx context.Context, o Options) (Result, error) {
		panic("direct runner explosion")
	})
	res, err := RunCtx(context.Background(), "panic-direct", Options{})
	if res != nil {
		t.Fatal("panicking runner returned a result")
	}
	if err == nil || !strings.Contains(err.Error(), "direct runner explosion") {
		t.Fatalf("err = %v, want the panic value surfaced", err)
	}
}

func TestRunCtxRecoversWorkerPanic(t *testing.T) {
	// A panic inside a legacy void parallel call is isolated by the
	// worker, re-raised on the runner goroutine as *PanicError, and
	// RunCtx converts it to an error that still unwraps to the
	// PanicError with its worker stack.
	withTestRunner(t, "panic-worker", func(ctx context.Context, o Options) (Result, error) {
		parallel.ForDynamic(64, func(i int) {
			if i == 13 {
				panic("worker explosion")
			}
		})
		return nil, nil
	})
	_, err := RunCtx(context.Background(), "panic-worker", Options{})
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want to unwrap to *PanicError", err)
	}
	if pe.Value != "worker explosion" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError lost its payload: %+v", pe)
	}
}

func TestRunAllCtxCollectsAllFailures(t *testing.T) {
	withTestRunner(t, "aa-fail", func(ctx context.Context, o Options) (Result, error) {
		return nil, errors.New("first failure")
	})
	withTestRunner(t, "ab-fail", func(ctx context.Context, o Options) (Result, error) {
		return nil, errors.New("second failure")
	})
	systems.ResetCalibrationCache()
	results, err := RunAllCtx(context.Background(), Options{Replicates: 200, MeasurementTrials: 8, TraceSamples: 64})
	var es ExperimentErrors
	if !errors.As(err, &es) {
		t.Fatalf("err = %T %v, want ExperimentErrors", err, err)
	}
	if len(es) != 2 {
		t.Fatalf("collected %d failures, want 2: %v", len(es), es)
	}
	msg := es.Error()
	if !strings.Contains(msg, "first failure") || !strings.Contains(msg, "second failure") {
		t.Fatalf("summary hides a failure: %q", msg)
	}
	// The healthy experiments still produced results.
	ok := 0
	for _, r := range results {
		if r != nil {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no sibling experiment survived two injected failures")
	}
}

func TestRunAllCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunAllCtx(ctx, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFigure3CheckpointOptionsThread(t *testing.T) {
	// Figure 3 hands its progress to OnCheckpoint, and a run resumed from
	// the last envelope renders the same bytes.
	systems.ResetCalibrationCache()
	var last []byte
	opts := Options{
		Replicates:   4000,
		OnCheckpoint: func(env []byte) error { last = env; return nil },
	}
	ref, err := RunCtx(context.Background(), Figure3, opts)
	if err != nil {
		t.Fatalf("figure3: %v", err)
	}
	if last == nil {
		t.Fatal("figure3 handed no checkpoint to OnCheckpoint")
	}
	res, err := RunCtx(context.Background(), Figure3, Options{Replicates: 4000, Resume: last})
	if err != nil {
		t.Fatalf("resumed figure3: %v", err)
	}
	var want, got bytes.Buffer
	if err := ref.Render(&want); err != nil {
		t.Fatal(err)
	}
	if err := res.Render(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("resumed figure3 renders differently:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

func TestAblationHonorsDeadline(t *testing.T) {
	// A paper-scale ablation runs for seconds; its deadline must stop it
	// in whichever phase is running, the robustness study included,
	// instead of completing with a nil error.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	res, err := RunCtx(ctx, Ablation, Options{Replicates: 100000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatal("a timed-out ablation returned a result")
	}
}
