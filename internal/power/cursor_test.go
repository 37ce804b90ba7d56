package power

import (
	"fmt"
	"math"
	"testing"

	"nodevar/internal/rng"
)

// checkCursorAverage asserts that one cursor window read equals
// Trace.AverageBetween bit for bit, with the same error.
func checkCursorAverage(t *testing.T, c *Cursor, a, b float64) {
	t.Helper()
	got, gotErr := c.AverageBetween(a, b)
	want, wantErr := c.t.AverageBetween(a, b)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("window [%v, %v]: cursor error %v, trace error %v", a, b, gotErr, wantErr)
	}
	if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
		t.Fatalf("window [%v, %v]: cursor %v (%016x), trace %v (%016x)", a, b,
			got, math.Float64bits(float64(got)), want, math.Float64bits(float64(want)))
	}
}

// TestCursorAverageBetweenMatchesTrace is the property test behind the
// cursor's window reads: over random traces, one long-lived cursor must
// answer every window exactly as Trace.AverageBetween does — values bit
// for bit and the same errors — whatever order the windows come in.
// Each trial mixes forward, overlapping, backward and equal-bound
// windows, bounds exactly on samples and ±1e-9 around them and around
// the span ends (inside and outside the tolerance), far-out-of-span and
// NaN bounds, and a read-out grid whose bucket ends lo + B can overshoot
// the next bucket's start by an ulp.
func TestCursorAverageBetweenMatchesTrace(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 60; trial++ {
		tr := randomTrace(r, 2+r.Intn(600))
		c := tr.Cursor()
		s := tr.Samples()
		start, end := tr.Start(), tr.End()
		span := end - start
		sample := func() float64 { return s[r.Intn(len(s))].Time }
		uniform := func() float64 { return start + r.Float64()*span }
		for q := 0; q < 300; q++ {
			var a, b float64
			switch r.Intn(9) {
			case 0: // forward step from a random point
				a = uniform()
				b = a + r.Float64()*span/20
			case 1: // backward (inverted) window
				b = uniform()
				a = b + r.Float64()*span/20
			case 2: // arbitrary, possibly overlapping the last one
				a, b = uniform(), uniform()
			case 3: // equal bounds
				a = uniform()
				b = a
			case 4: // sample-exact bounds
				a, b = sample(), sample()
			case 5: // bounds a hair off samples
				a = sample() + []float64{-1e-9, 1e-9}[r.Intn(2)]
				b = sample() + []float64{-1e-9, 1e-9}[r.Intn(2)]
			case 6: // the span ends, inside and past the tolerance
				a = start + []float64{-1e-9, 0, 1e-9, -2e-9}[r.Intn(4)]
				b = end + []float64{-1e-9, 0, 1e-9, 2e-9}[r.Intn(4)]
			case 7: // far outside the span
				a, b = start-1-span*r.Float64(), uniform()
			case 8: // NaN bound
				a, b = math.NaN(), uniform()
			}
			checkCursorAverage(t, c, a, b)
		}
		// A read-out grid walked forward, then backward, on the same
		// cursor: hi = lo + B rounds independently of the next lo.
		const bucket = 0.7
		g := NewGrid(start, end, bucket)
		for i := 0; i < g.N; i++ {
			lo := g.At(i)
			hi := lo + bucket
			if i == g.N-1 || hi > end {
				hi = end
			}
			checkCursorAverage(t, c, lo, hi)
		}
		for i := g.N - 1; i >= 0; i-- {
			checkCursorAverage(t, c, g.At(i), math.Min(g.At(i)+bucket, end))
		}
	}
	// Traces too short to integrate: equal bounds still read the point,
	// anything else is ErrShortTrace, as on the trace itself.
	one, err := NewTrace([]Sample{{Time: 5, Power: 120}})
	if err != nil {
		t.Fatal(err)
	}
	c := one.Cursor()
	for _, w := range [][2]float64{{5, 5}, {3, 3}, {4, 6}, {6, 4}} {
		checkCursorAverage(t, c, w[0], w[1])
	}
}

// TestCursorAverageBetweenCountsReads checks that cursor window reads
// feed the fast-path counter, in whole flush batches.
func TestCursorAverageBetweenCountsReads(t *testing.T) {
	tr := randomTrace(rng.New(5), 100)
	c := tr.Cursor()
	before := mCursorReads.Value()
	for i := 0; i < 3*cursorReadFlush; i++ {
		if _, err := c.AverageBetween(tr.Start(), tr.End()); err != nil {
			t.Fatal(err)
		}
	}
	if got := mCursorReads.Value() - before; got != 3*cursorReadFlush {
		t.Errorf("cursor_fastpath_reads rose by %d over %d window reads, want %d",
			got, 3*cursorReadFlush, 3*cursorReadFlush)
	}
}
