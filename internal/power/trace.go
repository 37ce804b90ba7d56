package power

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"nodevar/internal/obs"
)

// Trace metrics. Cursor reads are the fast path (amortized-O(1) forward
// walk); Trace.At reads are the slow path (a binary search each call).
// Cursor reads are batched into the counter every cursorReadFlush reads
// so the hottest loop in the codebase pays one atomic add per batch, not
// per sample; the reported total is therefore a slight undercount (up to
// cursorReadFlush-1 per cursor).
var (
	mIndexBuilds = obs.NewCounter("power.trace.index_builds")
	mAtSlowReads = obs.NewCounter("power.trace.at_slowpath_reads")
	mCursors     = obs.NewCounter("power.trace.cursors")
	mCursorReads = obs.NewCounter("power.trace.cursor_fastpath_reads")
)

// cursorReadFlush is the cursor-read batch size (a power of two so the
// flush test compiles to a mask).
const cursorReadFlush = 256

// Trace is a power-versus-time series with strictly increasing timestamps.
// Between samples the power is treated as piecewise linear, which is how
// both the energy integral and the segment averages are defined.
//
// Windowed queries (EnergyBetween, AverageBetween, Slice) are served from a
// lazily built prefix-sum energy index, so after the first query each
// window costs O(log n) instead of a full scan. The index is built at most
// once per trace revision and is safe to use from concurrent readers;
// Append invalidates it.
type Trace struct {
	samples []Sample
	// idx caches the cumulative trapezoid integral per sample. It is nil
	// until the first windowed query and reset to nil by Append. Concurrent
	// readers may race to build it; the build is deterministic, so whichever
	// store wins is equivalent.
	idx atomic.Pointer[energyIndex]
}

// energyIndex is an immutable prefix-sum table over one trace revision:
// prefix[i] is the trapezoid integral of power from samples[0] to
// samples[i] (prefix[0] = 0).
type energyIndex struct {
	prefix []float64
}

// index returns the trace's energy index, building it on first use.
func (t *Trace) index() *energyIndex {
	if e := t.idx.Load(); e != nil {
		return e
	}
	prefix := make([]float64, len(t.samples))
	for i := 1; i < len(t.samples); i++ {
		a, b := t.samples[i-1], t.samples[i]
		prefix[i] = prefix[i-1] + (float64(a.Power)+float64(b.Power))/2*(b.Time-a.Time)
	}
	e := &energyIndex{prefix: prefix}
	t.idx.Store(e)
	mIndexBuilds.Inc()
	return e
}

// energyTo returns the cumulative energy from the trace start to time x,
// combining the prefix table with one interpolated boundary term. x must
// lie within [Start-ε, End+ε]; values before the first sample contribute 0.
func (t *Trace) energyTo(e *energyIndex, x float64) float64 {
	s := t.samples
	// i is the last sample with Time <= x.
	i := sort.Search(len(s), func(k int) bool { return s[k].Time > x }) - 1
	return t.energyAt(e, x, i)
}

// energyAt is energyTo with i, the last sample with Time <= x (-1 when x
// precedes the trace), already located.
func (t *Trace) energyAt(e *energyIndex, x float64, i int) float64 {
	s := t.samples
	if i < 0 {
		return 0
	}
	total := e.prefix[i]
	if i+1 < len(s) && x > s[i].Time {
		a, b := s[i], s[i+1]
		frac := (x - a.Time) / (b.Time - a.Time)
		px := float64(a.Power) + frac*(float64(b.Power)-float64(a.Power))
		total += (float64(a.Power) + px) / 2 * (x - a.Time)
	}
	return total
}

// locate returns the last sample with Time <= x (-1 when x precedes the
// trace), walking from hint: forward while the next sample is not past
// x, back while the current one is. It lands on the index sort.Search
// finds from any hint in [-1, Len), in steps proportional to the
// distance from it.
func (t *Trace) locate(x float64, hint int) int {
	s := t.samples
	i := hint
	for i+1 < len(s) && s[i+1].Time <= x {
		i++
	}
	for i >= 0 && s[i].Time > x {
		i--
	}
	return i
}

// ErrShortTrace is returned by operations that need at least two samples.
var ErrShortTrace = errors.New("power: trace needs at least 2 samples")

// NewTrace builds a trace from samples, which must be in strictly
// increasing time order.
func NewTrace(samples []Sample) (*Trace, error) {
	for i := 1; i < len(samples); i++ {
		if samples[i].Time <= samples[i-1].Time {
			return nil, fmt.Errorf("power: non-increasing timestamp at index %d (%v after %v)",
				i, samples[i].Time, samples[i-1].Time)
		}
	}
	return &Trace{samples: samples}, nil
}

// Append adds a sample to the end of the trace. It returns an error if the
// timestamp does not increase.
func (t *Trace) Append(s Sample) error {
	if n := len(t.samples); n > 0 && s.Time <= t.samples[n-1].Time {
		return fmt.Errorf("power: appended timestamp %v not after %v", s.Time, t.samples[n-1].Time)
	}
	t.samples = append(t.samples, s)
	t.idx.Store(nil)
	return nil
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.samples) }

// Samples returns the underlying samples (shared storage; do not modify).
func (t *Trace) Samples() []Sample { return t.samples }

// Start returns the first timestamp. It panics on an empty trace.
func (t *Trace) Start() float64 {
	if len(t.samples) == 0 {
		panic("power: empty trace")
	}
	return t.samples[0].Time
}

// End returns the last timestamp. It panics on an empty trace.
func (t *Trace) End() float64 {
	if len(t.samples) == 0 {
		panic("power: empty trace")
	}
	return t.samples[len(t.samples)-1].Time
}

// Duration returns End() - Start().
func (t *Trace) Duration() float64 { return t.End() - t.Start() }

// At returns the linearly interpolated power at time x. Outside the trace
// span it clamps to the first or last sample.
func (t *Trace) At(x float64) Watts {
	n := len(t.samples)
	if n == 0 {
		panic("power: empty trace")
	}
	mAtSlowReads.Inc()
	if x <= t.samples[0].Time {
		return t.samples[0].Power
	}
	if x >= t.samples[n-1].Time {
		return t.samples[n-1].Power
	}
	i := sort.Search(n, func(i int) bool { return t.samples[i].Time >= x })
	a, b := t.samples[i-1], t.samples[i]
	frac := (x - a.Time) / (b.Time - a.Time)
	return a.Power + Watts(frac)*(b.Power-a.Power)
}

// Cursor reads a trace sequentially, replacing the binary search of
// Trace.At and Trace.AverageBetween with a walk from the previous read:
// point reads at non-decreasing times, and windows whose bounds move a
// few samples between calls (a meter's read grid), cost amortized O(1)
// each. Results are identical to the Trace methods.
type Cursor struct {
	t *Trace
	// i is the index of the first sample with Time >= the previous At
	// query (the interpolation upper bound).
	i int
	// lo and hi are the AverageBetween bound hints: the last sample with
	// Time <= the previous window's lower and upper bound.
	lo, hi int
	// reads counts reads locally; every cursorReadFlush reads are
	// flushed to the shared counter in one atomic add.
	reads int
}

// Cursor returns a sequential reader positioned at the trace start.
func (t *Trace) Cursor() *Cursor {
	if len(t.samples) == 0 {
		panic("power: empty trace")
	}
	mCursors.Inc()
	return &Cursor{t: t}
}

// count records one fast-path read.
func (c *Cursor) count() {
	c.reads++
	if c.reads&(cursorReadFlush-1) == 0 {
		mCursorReads.Add(cursorReadFlush)
	}
}

// At returns the linearly interpolated power at time x, which must be
// >= the previous At query's time. Outside the trace span it clamps like
// Trace.At.
func (c *Cursor) At(x float64) Watts {
	c.count()
	s := c.t.samples
	n := len(s)
	if x <= s[0].Time {
		return s[0].Power
	}
	if x >= s[n-1].Time {
		return s[n-1].Power
	}
	for c.i < n && s[c.i].Time < x {
		c.i++
	}
	a, b := s[c.i-1], s[c.i]
	frac := (x - a.Time) / (b.Time - a.Time)
	return a.Power + Watts(frac)*(b.Power-a.Power)
}

// AverageBetween returns Trace.AverageBetween(a, b) bit for bit, with
// the same errors, locating each bound by walking from where the
// previous window's bound landed. Windows may come in any order — a
// bound may even step back, as a bucket end computed as lo + B can sit
// an ulp past the next bucket's start — only the cost depends on it.
func (c *Cursor) AverageBetween(a, b float64) (Watts, error) {
	t := c.t
	if a == b {
		return t.At(a), nil
	}
	a, b, err := t.window(a, b)
	if err != nil {
		return 0, err
	}
	c.count()
	e := t.index()
	c.lo = t.locate(a, c.lo)
	c.hi = t.locate(b, c.hi)
	energy := Joules(t.energyAt(e, b, c.hi) - t.energyAt(e, a, c.lo))
	return Watts(float64(energy) / (b - a)), nil
}

// Energy returns the trapezoidal integral of power over the full trace.
func (t *Trace) Energy() (Joules, error) {
	return t.EnergyBetween(t.Start(), t.End())
}

// EnergyBetween returns the trapezoidal integral of power over [a, b],
// interpolating at the endpoints. It returns an error if the trace has
// fewer than 2 samples or the window is empty or outside the trace.
func (t *Trace) EnergyBetween(a, b float64) (Joules, error) {
	a, b, err := t.window(a, b)
	if err != nil {
		return 0, err
	}
	if a == b {
		return 0, nil
	}
	e := t.index()
	return Joules(t.energyTo(e, b) - t.energyTo(e, a)), nil
}

// window validates an integration window and returns it in order: the
// trace needs two samples, and [a, b] must lie within its span (to 1e-9).
func (t *Trace) window(a, b float64) (float64, float64, error) {
	if len(t.samples) < 2 {
		return 0, 0, ErrShortTrace
	}
	if a > b {
		a, b = b, a
	}
	if a < t.Start()-1e-9 || b > t.End()+1e-9 {
		return 0, 0, fmt.Errorf("power: window [%v, %v] outside trace span [%v, %v]",
			a, b, t.Start(), t.End())
	}
	return a, b, nil
}

// AverageBetween returns the time-weighted average power over [a, b].
func (t *Trace) AverageBetween(a, b float64) (Watts, error) {
	if a == b {
		return t.At(a), nil
	}
	e, err := t.EnergyBetween(a, b)
	if err != nil {
		return 0, err
	}
	if a > b {
		a, b = b, a
	}
	return Watts(float64(e) / (b - a)), nil
}

// Average returns the time-weighted average power over the whole trace.
func (t *Trace) Average() (Watts, error) {
	return t.AverageBetween(t.Start(), t.End())
}

// Peak returns the maximum sampled power. It panics on an empty trace.
func (t *Trace) Peak() Watts {
	if len(t.samples) == 0 {
		panic("power: empty trace")
	}
	m := t.samples[0].Power
	for _, s := range t.samples[1:] {
		if s.Power > m {
			m = s.Power
		}
	}
	return m
}

// Slice returns a new trace restricted to [a, b], with interpolated
// boundary samples so the restriction is exact under the piecewise-linear
// model.
func (t *Trace) Slice(a, b float64) (*Trace, error) {
	if len(t.samples) < 2 {
		return nil, ErrShortTrace
	}
	if a > b {
		a, b = b, a
	}
	if a < t.Start()-1e-9 || b > t.End()+1e-9 {
		return nil, fmt.Errorf("power: slice window [%v, %v] outside trace", a, b)
	}
	// Binary-search the interior sample range instead of scanning the
	// whole trace.
	lo := sort.Search(len(t.samples), func(i int) bool { return t.samples[i].Time > a })
	hi := sort.Search(len(t.samples), func(i int) bool { return t.samples[i].Time >= b })
	if hi < lo { // possible only for an empty window (a == b)
		hi = lo
	}
	out := make([]Sample, 0, hi-lo+2)
	out = append(out, Sample{Time: a, Power: t.At(a)})
	out = append(out, t.samples[lo:hi]...)
	if b > a {
		out = append(out, Sample{Time: b, Power: t.At(b)})
	}
	return NewTrace(out)
}

// Scale returns a new trace with every power value multiplied by factor,
// as used for linear extrapolation from a measured subset to the full
// machine.
func (t *Trace) Scale(factor float64) *Trace {
	out := make([]Sample, len(t.samples))
	for i, s := range t.samples {
		out[i] = Sample{Time: s.Time, Power: s.Power * Watts(factor)}
	}
	return &Trace{samples: out}
}

// SumTraces returns the pointwise sum of traces over the intersection of
// their spans, sampled at the union of their timestamps within it. It
// returns an error if fewer than one trace is given or the spans do not
// overlap.
func SumTraces(traces ...*Trace) (*Trace, error) {
	if len(traces) == 0 {
		return nil, errors.New("power: SumTraces needs at least one trace")
	}
	lo, hi := traces[0].Start(), traces[0].End()
	for _, tr := range traces[1:] {
		if tr.Start() > lo {
			lo = tr.Start()
		}
		if tr.End() < hi {
			hi = tr.End()
		}
	}
	if hi <= lo {
		return nil, errors.New("power: traces do not overlap in time")
	}
	timeSet := map[float64]struct{}{}
	for _, tr := range traces {
		for _, s := range tr.samples {
			if s.Time >= lo && s.Time <= hi {
				timeSet[s.Time] = struct{}{}
			}
		}
	}
	timeSet[lo] = struct{}{}
	timeSet[hi] = struct{}{}
	times := make([]float64, 0, len(timeSet))
	for x := range timeSet {
		times = append(times, x)
	}
	sort.Float64s(times)
	out := make([]Sample, len(times))
	for i, x := range times {
		var sum Watts
		for _, tr := range traces {
			sum += tr.At(x)
		}
		out[i] = Sample{Time: x, Power: sum}
	}
	return NewTrace(out)
}
