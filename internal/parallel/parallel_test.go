package parallel

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"nodevar/internal/rng"
)

func TestWorkers(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != max {
		t.Errorf("Workers(0) = %d, want %d", got, max)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d, want 1", got)
	}
	if got := Workers(max + 100); got != max {
		t.Errorf("Workers(max+100) = %d, want %d", got, max)
	}
}

func TestSplitRangeCoversExactly(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{0, 1}, {1, 1}, {10, 3}, {10, 10}, {10, 20}, {100, 7}, {3, 4},
	} {
		ranges := SplitRange(tc.n, tc.parts)
		covered := make([]int, tc.n)
		for _, r := range ranges {
			if r.Lo >= r.Hi {
				t.Fatalf("SplitRange(%d,%d) produced empty range %+v", tc.n, tc.parts, r)
			}
			for i := r.Lo; i < r.Hi; i++ {
				covered[i]++
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("SplitRange(%d,%d): index %d covered %d times", tc.n, tc.parts, i, c)
			}
		}
	}
}

func TestSplitRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SplitRange with parts=0 did not panic")
		}
	}()
	SplitRange(10, 0)
}

func TestForVisitsEachIndexOnce(t *testing.T) {
	const n = 1000
	var counts [n]int64
	For(n, func(i int) { atomic.AddInt64(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, func(i int) { called = true })
	For(-5, func(i int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestForChunkedCoverage(t *testing.T) {
	const n = 257
	var counts [n]int64
	ForChunked(n, func(r Range) {
		for i := r.Lo; i < r.Hi; i++ {
			atomic.AddInt64(&counts[i], 1)
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestForSeededChunksDeterministic(t *testing.T) {
	// Same n, chunks and seed must give bit-identical output regardless of
	// scheduling, because each chunk owns its stream and output range.
	const n, chunks = 1000, 16
	run := func() []float64 {
		out := make([]float64, n)
		ForSeededChunks(n, chunks, rng.New(99), func(r Range, stream *rng.Rand) {
			for i := r.Lo; i < r.Hi; i++ {
				out[i] = stream.Float64()
			}
		})
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ForSeededChunks not deterministic at index %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestForSeededChunksChunkCount(t *testing.T) {
	var calls int64
	ForSeededChunks(100, 7, rng.New(1), func(r Range, s *rng.Rand) {
		atomic.AddInt64(&calls, 1)
	})
	if calls != 7 {
		t.Errorf("got %d chunk calls, want 7", calls)
	}
	calls = 0
	ForSeededChunks(3, 10, rng.New(1), func(r Range, s *rng.Rand) {
		atomic.AddInt64(&calls, 1)
	})
	if calls != 3 {
		t.Errorf("got %d chunk calls for n=3, want 3", calls)
	}
}

func TestMapReduceOrderStable(t *testing.T) {
	// Floating-point catastrophic-cancellation construction: order matters,
	// so two identical runs must agree exactly.
	f := func(i int) float64 { return math.Pow(-1, float64(i)) / float64(i+1) }
	a := MapReduceFloat64(10001, f, 0, func(acc, v float64) float64 { return acc + v })
	b := MapReduceFloat64(10001, f, 0, func(acc, v float64) float64 { return acc + v })
	if a != b {
		t.Fatalf("MapReduceFloat64 unstable: %v != %v", a, b)
	}
	// The alternating harmonic series converges to ln 2.
	if math.Abs(a-math.Ln2) > 1e-3 {
		t.Errorf("sum = %v, want ~ln2 = %v", a, math.Ln2)
	}
}

func TestSum(t *testing.T) {
	got := Sum(100, func(i int) float64 { return float64(i) })
	if got != 4950 {
		t.Errorf("Sum = %v, want 4950", got)
	}
	if got := Sum(0, func(i int) float64 { return 1 }); got != 0 {
		t.Errorf("Sum over empty range = %v, want 0", got)
	}
}

// Property: SplitRange pieces are ordered and contiguous.
func TestQuickSplitRangeContiguous(t *testing.T) {
	f := func(n, parts uint8) bool {
		p := int(parts%32) + 1
		ranges := SplitRange(int(n), p)
		prev := 0
		for _, r := range ranges {
			if r.Lo != prev || r.Hi <= r.Lo {
				return false
			}
			prev = r.Hi
		}
		return prev == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkForOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		For(1024, func(int) {})
	}
}

func BenchmarkSumParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Sum(100000, func(i int) float64 { return math.Sqrt(float64(i)) })
	}
}
