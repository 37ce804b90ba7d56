package parallel

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"nodevar/internal/rng"
)

func TestForRangesCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls int64
	errRanges := ForRangesCtx(ctx, SplitRange(1000, 16), func(int, Range) { atomic.AddInt64(&calls, 1) })
	errDynamic := ForDynamicCtx(ctx, 1000, func(int) { atomic.AddInt64(&calls, 1) })
	for _, err := range []error{errRanges, errDynamic} {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	if calls != 0 {
		t.Errorf("%d body calls after pre-canceled context, want 0", calls)
	}
}

// cancelAtFirstIndex wraps body so the run is canceled deterministically
// mid-way: index 0 (the first index of the first claimed chunk) cancels,
// and every other index waits for that cancellation before running. No
// chunk but the first can finish before the cancel, so each worker holds
// at most one chunk when it lands and the remaining chunks are never
// claimed. Cancelling from whichever call came Nth is not enough: under
// CPU load the cancelling worker can be preempted before cancel() while
// the others run every remaining chunk.
func cancelAtFirstIndex(ctx context.Context, cancel context.CancelFunc, body func(i int)) func(i int) {
	return func(i int) {
		if i == 0 {
			cancel()
		} else {
			<-ctx.Done()
		}
		body(i)
	}
}

func TestForRangesCtxCancelMidRunNeverTearsChunks(t *testing.T) {
	// Cancel partway through; every index either ran exactly once or not
	// at all, and whole chunks are the unit — a started chunk finishes.
	const n = 10000
	ranges := SplitRange(n, Workers(n)*8)
	ctx, cancel := context.WithCancel(context.Background())
	var counts [n]int64
	body := cancelAtFirstIndex(ctx, cancel, func(i int) {
		atomic.AddInt64(&counts[i], 1)
	})
	err := ForRangesCtx(ctx, ranges, func(_ int, r Range) {
		for i := r.Lo; i < r.Hi; i++ {
			body(i)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ran := 0
	for i, c := range counts {
		if c > 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
		ran += int(c)
	}
	if ran == 0 || ran == n {
		t.Fatalf("ran %d of %d indices; want a genuine partial run", ran, n)
	}
	// Chunk atomicity: within each scheduled chunk, the indices that ran
	// form complete chunks, never a prefix of one.
	for _, r := range ranges {
		chunkRan := 0
		for i := r.Lo; i < r.Hi; i++ {
			chunkRan += int(counts[i])
		}
		if chunkRan != 0 && chunkRan != r.Hi-r.Lo {
			t.Fatalf("chunk %+v partially ran (%d of %d): torn chunk", r, chunkRan, r.Hi-r.Lo)
		}
	}
}

func TestForRangesCtxCompletesWithoutCancel(t *testing.T) {
	const n = 500
	var counts [n]int64
	err := ForRangesCtx(context.Background(), SplitRange(n, 7), func(_ int, r Range) {
		for i := r.Lo; i < r.Hi; i++ {
			atomic.AddInt64(&counts[i], 1)
		}
	})
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestWorkerPanicSurfacesAsPanicError(t *testing.T) {
	err := ForDynamicCtx(context.Background(), 100, func(i int) {
		if i == 37 {
			panic("boom at 37")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "boom at 37" {
		t.Errorf("PanicError.Value = %v, want boom at 37", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "parallel") {
		t.Errorf("PanicError.Stack missing or unhelpful: %q", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "boom at 37") {
		t.Errorf("Error() = %q, want it to mention the panic value", pe.Error())
	}
}

func TestWorkerPanicCountsMetricAndAborts(t *testing.T) {
	before := mParPanics.Value()
	var after atomic.Int64
	err := ForDynamicCtx(context.Background(), 64, func(i int) {
		if i == 0 {
			panic("first item dies")
		}
		// Hold every other item until the panic is recorded, which exec
		// does only after raising its abort flag: at most the items
		// already claimed by the other workers then run. Without the
		// wait, a worker preempted inside the recover let the others
		// run all 63 items under CPU load.
		for mParPanics.Value() == before {
			runtime.Gosched()
		}
		after.Add(1)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if got := mParPanics.Value() - before; got < 1 {
		t.Errorf("panic metric advanced by %d, want >= 1", got)
	}
	// Remaining work is abandoned: strictly fewer than all other items ran.
	if after.Load() >= 63 {
		t.Errorf("%d items ran after the panic; abort did not stop scheduling", after.Load())
	}
}

func TestLegacyForRePanicsWithPanicError(t *testing.T) {
	defer func() {
		v := recover()
		pe, ok := v.(*PanicError)
		if !ok {
			t.Fatalf("recovered %v (%T), want *PanicError", v, v)
		}
		if pe.Value != "legacy boom" {
			t.Errorf("PanicError.Value = %v", pe.Value)
		}
	}()
	ForDynamic(10, func(i int) {
		if i == 3 {
			panic("legacy boom")
		}
	})
	t.Fatal("ForDynamic returned instead of panicking")
}

func TestMetricsFlushedOnErrorPaths(t *testing.T) {
	// Satellite: wall/busy counters must be flushed even when the call
	// fails early (cancellation or panic), not only on success.
	wall0, busy0, calls0 := fParWall.Value(), fParBusy.Value(), mParCalls.Value()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = ForRangesCtx(ctx, SplitRange(1000, 16), func(int, Range) {})

	_ = ForDynamicCtx(context.Background(), 1000, func(i int) {
		if i == 0 {
			panic("metric flush check")
		}
	})

	if got := mParCalls.Value() - calls0; got != 2 {
		t.Errorf("calls advanced by %d, want 2", got)
	}
	if fParWall.Value() <= wall0 {
		t.Error("wall counter not flushed on error paths")
	}
	if fParBusy.Value() < busy0 {
		t.Error("busy counter went backwards")
	}
}

func TestForRangesCtxSubsetMatchesFullRun(t *testing.T) {
	// The resume primitive: running only a subset of chunks with streams
	// derived by ChunkStreams reproduces exactly the full run's values
	// for those chunks.
	const n, chunks = 1000, 16
	ranges := SplitRange(n, chunks)
	full := make([]float64, n)
	fullStreams := ChunkStreams(rng.New(7), len(ranges))
	err := ForRangesCtx(context.Background(), ranges, func(ci int, r Range) {
		for i := r.Lo; i < r.Hi; i++ {
			full[i] = fullStreams[ci].Float64()
		}
	})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}

	streams := ChunkStreams(rng.New(7), len(ranges))
	// Re-run only the odd-indexed chunks, as a resume would.
	var odd []Range
	var oddIdx []int
	for ci, r := range ranges {
		if ci%2 == 1 {
			odd = append(odd, r)
			oddIdx = append(oddIdx, ci)
		}
	}
	partial := make([]float64, n)
	err = ForRangesCtx(context.Background(), odd, func(ci int, r Range) {
		s := streams[oddIdx[ci]]
		for i := r.Lo; i < r.Hi; i++ {
			partial[i] = s.Float64()
		}
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	for _, ci := range oddIdx {
		r := ranges[ci]
		for i := r.Lo; i < r.Hi; i++ {
			if partial[i] != full[i] {
				t.Fatalf("resumed chunk %d diverged at index %d: %v != %v", ci, i, partial[i], full[i])
			}
		}
	}
}

func TestChunkStreamsDerivationIsPrefixStable(t *testing.T) {
	// Stream k of ChunkStreams(parent, m) must not depend on m beyond
	// k < m: the derivation is sequential splits, so a longer list is a
	// superset. Checkpoint fingerprints rely on this.
	a := ChunkStreams(rng.New(42), 4)
	b := ChunkStreams(rng.New(42), 8)
	for i := 0; i < 4; i++ {
		if a[i].Float64() != b[i].Float64() {
			t.Fatalf("stream %d differs between k=4 and k=8 derivations", i)
		}
	}
}

func TestForDynamicCtxCompletes(t *testing.T) {
	const n = 200
	var counts [n]int64
	if err := ForDynamicCtx(context.Background(), n, func(i int) { atomic.AddInt64(&counts[i], 1) }); err != nil {
		t.Fatalf("err = %v", err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}
