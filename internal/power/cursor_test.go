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
	// Traces too short to integrate: every window, equal bounds
	// included, is ErrShortTrace, as on the trace itself.
	one, err := NewTrace([]Sample{{Time: 5, Power: 120}})
	if err != nil {
		t.Fatal(err)
	}
	c := one.Cursor()
	for _, w := range [][2]float64{{5, 5}, {3, 3}, {4, 6}, {6, 4}} {
		checkCursorAverage(t, c, w[0], w[1])
		if _, err := c.AverageBetween(w[0], w[1]); err != ErrShortTrace {
			t.Errorf("window %v on a one-sample trace: error %v, want ErrShortTrace", w, err)
		}
	}
}

// TestAverageBetweenEqualBoundsValidated checks that an empty window is
// validated like any other before it reads the point (the one-sample
// cases are in TestCursorAverageBetweenMatchesTrace): on an empty trace
// it is ErrShortTrace, not a panic, outside the span it is an error,
// and only inside the span (to the 1e-9 tolerance) does it read At(a),
// on the trace and on a cursor alike.
func TestAverageBetweenEqualBoundsValidated(t *testing.T) {
	empty, err := NewTrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.AverageBetween(0, 0); err != ErrShortTrace {
		t.Errorf("[0, 0] on an empty trace: error %v, want ErrShortTrace", err)
	}

	tr := randomTrace(rng.New(17), 50)
	start, end := tr.Start(), tr.End()
	for _, x := range []float64{start - 1, end + 1, start - 2e-9, end + 2e-9} {
		if v, err := tr.AverageBetween(x, x); err == nil {
			t.Errorf("[%v, %v] outside span [%v, %v] read %v with no error", x, x, start, end, v)
		}
		if v, err := tr.Cursor().AverageBetween(x, x); err == nil {
			t.Errorf("cursor [%v, %v] outside span [%v, %v] read %v with no error", x, x, start, end, v)
		}
	}
	for _, x := range []float64{start, start - 1e-10, end, end + 1e-10, tr.Samples()[7].Time, (start + end) / 2} {
		want := tr.At(x)
		for name, avg := range map[string]func(a, b float64) (Watts, error){
			"trace": tr.AverageBetween, "cursor": tr.Cursor().AverageBetween,
		} {
			got, err := avg(x, x)
			if err != nil || math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Errorf("%s [%v, %v]: %v, %v; want At = %v", name, x, x, got, err, want)
			}
		}
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
