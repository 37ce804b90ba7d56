package power

// Grid is a sampling grid: the N times Start + i*Period, i in [0, N).
// Every simulator tick and every meter read takes its time from a Grid,
// so all samplers share one rule for where the grid falls and none of
// them accumulates time (x += period drifts off the grid and can leave a
// near-duplicate point just below the window end).
type Grid struct {
	Start, Period float64
	N             int
}

// NewGrid returns the grid a + i*period over [a, b): the largest N with
// a + (N-1)*period < b - period*1e-9, so a grid point landing within
// epsilon of b is left to the caller's explicit endpoint sample instead
// of being duplicated beside it. The first point a is always included.
//
// period must be positive and finite, and callers bound (b-a)/period:
// the result holds that many points.
func NewGrid(a, b, period float64) Grid {
	eps := period * 1e-9
	n := int((b-a)/period) + 1
	for a+float64(n)*period < b-eps {
		n++
	}
	for n > 1 && a+float64(n-1)*period >= b-eps {
		n--
	}
	return Grid{Start: a, Period: period, N: n}
}

// At returns grid point i, computed from the index so it is bit-for-bit
// Start + float64(i)*Period however long the grid.
func (g Grid) At(i int) float64 { return g.Start + float64(i)*g.Period }
