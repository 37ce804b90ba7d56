package meter

import (
	"errors"
	"fmt"
	"math"

	"nodevar/internal/power"
	"nodevar/internal/rng"
)

// This file adds the multi-architecture meter layer. The original Spec
// models one idiom — a fixed-gain periodic point sampler, the revenue-
// grade external meter the EE HPC WG methodology assumes — but real
// fleets are measured by instruments with very different failure
// shapes. Two more are modeled here from their published
// characterizations:
//
//   - WindowedSpec: nvidia-smi-style intermittent sampling ("Part-time
//     Power Measurements", arXiv:2312.02741). The driver exposes a power
//     value that is a short boxcar average refreshed at the read period;
//     everything between windows is never observed, so short power
//     transients are attenuated or missed entirely, and the start phase
//     of the window grid is outside the operator's control.
//
//   - OCCSpec: an on-chip controller in the IBM POWER9 OCC style
//     (arXiv:2304.12646). The controller samples internally at kilohertz
//     rates and accumulates exactly, so nothing between read-outs is
//     lost — but every reading passes through the sensor's characterized
//     accuracy envelope (a systematic per-instrument calibration error
//     plus a bounded per-reading error) and the external read-out
//     register is coarse.
//
// All three implement Model, so the methodology executor and the
// distortion comparison treat metering architecture as a first-class,
// swappable dimension of a measurement.

// Sampler is a full instrument: a windowed measurement producing the
// reported trace, the derived average (what a Level 1/2 submission
// computes), and integrated energy (the Level 3 style read-out).
type Sampler interface {
	Instrument
	// Measure returns the reported trace for window [a, b].
	Measure(tr *power.Trace, a, b float64) (*power.Trace, error)
	// Energy returns the reported integrated energy over [a, b].
	Energy(tr *power.Trace, a, b float64) (power.Joules, error)
}

// Model describes a metering architecture: a validated parameter set
// that draws instrument instances. Instrument-to-instrument variation
// (calibration, window phase) is drawn at NewInstrument time; reading-
// to-reading variation comes from the instrument's retained rng.
type Model interface {
	// ModelName identifies the architecture.
	ModelName() string
	// Validate checks the parameters.
	Validate() error
	// NewInstrument draws one instrument instance from r.
	NewInstrument(r *rng.Rand) (Sampler, error)
}

// Spec implements Model: the periodic point-sampler architecture.

// ModelName identifies the periodic point-sampler architecture.
func (s Spec) ModelName() string { return "periodic" }

// NewInstrument draws a periodic instrument; it is New as a Model.
func (s Spec) NewInstrument(r *rng.Rand) (Sampler, error) { return New(s, r) }

// WindowedSpec describes an nvidia-smi-style intermittent sampler:
// reads at period P report a boxcar average over a window W < P ending
// at the read instant, so the fraction (P-W)/P of the signal is never
// observed.
type WindowedSpec struct {
	// Period is the read cadence in seconds (required, positive).
	Period float64
	// Window is the boxcar averaging span ending at each read instant,
	// in seconds; it must not exceed Period. 0 degenerates to
	// instantaneous point reads (the pure intermittent-polling idiom).
	Window float64
	// PhaseJitter draws each instrument's first-read offset uniformly
	// from [0, Period): the driver's internal refresh grid is not
	// aligned to the measurement window, so two runs of the same job
	// see different slices of the signal.
	PhaseJitter bool
	// GainErrorCV, NoiseCV and ResolutionWatts are the shared
	// instrument error chain, as in Spec.
	GainErrorCV     float64
	NoiseCV         float64
	ResolutionWatts float64
}

// Validate checks the spec.
func (s WindowedSpec) Validate() error {
	switch {
	case !finite(s.Period) || !finite(s.Window) || !finite(s.GainErrorCV) ||
		!finite(s.NoiseCV) || !finite(s.ResolutionWatts):
		return errors.New("meter: windowed spec fields must be finite")
	case s.Period <= 0:
		return fmt.Errorf("meter: windowed Period %v must be positive", s.Period)
	case s.Window < 0 || s.Window > s.Period:
		return fmt.Errorf("meter: windowed Window %v outside [0, Period=%v]", s.Window, s.Period)
	case s.GainErrorCV < 0 || s.GainErrorCV > 0.1:
		return fmt.Errorf("meter: GainErrorCV %v outside [0, 0.1]", s.GainErrorCV)
	case s.NoiseCV < 0 || s.NoiseCV > 0.1:
		return fmt.Errorf("meter: NoiseCV %v outside [0, 0.1]", s.NoiseCV)
	case s.ResolutionWatts < 0:
		return errors.New("meter: ResolutionWatts must be non-negative")
	}
	return nil
}

// ModelName identifies the intermittent windowed-sampler architecture.
func (s WindowedSpec) ModelName() string { return "windowed" }

// NewInstrument draws one windowed instrument: fixed gain and (when
// PhaseJitter is set) a fixed read-grid phase per instance.
func (s WindowedSpec) NewInstrument(r *rng.Rand) (Sampler, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	gain := 1.0
	if s.GainErrorCV > 0 {
		gain = r.Normal(1, s.GainErrorCV)
	}
	phase := 0.0
	if s.PhaseJitter {
		phase = r.Float64() * s.Period
	}
	return &WindowedMeter{spec: s, gain: gain, phase: phase, r: r}, nil
}

// WindowedMeter is one intermittent-sampler instance.
type WindowedMeter struct {
	spec  WindowedSpec
	gain  float64
	phase float64
	r     *rng.Rand
}

// Gain returns the instrument's fixed calibration multiplier.
func (m *WindowedMeter) Gain() float64 { return m.gain }

// Phase returns the instrument's fixed read-grid offset in seconds.
func (m *WindowedMeter) Phase() float64 { return m.phase }

// read reports the boxcar average ending at x, clamped to the trace
// span, through the instrument error chain. cur is a cursor on tr; the
// reads of one Measure come at non-decreasing x.
func (m *WindowedMeter) read(tr *power.Trace, cur *power.Cursor, x float64) (power.Watts, error) {
	lo := x - m.spec.Window
	if lo < tr.Start() {
		lo = tr.Start()
	}
	var v power.Watts
	if lo < x {
		avg, err := cur.AverageBetween(lo, x)
		if err != nil {
			return 0, err
		}
		v = avg
	} else {
		v = cur.At(x)
	}
	return pipeline(float64(v), m.gain, m.spec.NoiseCV, m.spec.ResolutionWatts, m.r), nil
}

// Measure samples the true trace over [a, b] at the instrument's read
// grid a + phase + i*Period and returns the reported trace: exactly
// what a log of periodic nvidia-smi polls contains. Each reported
// sample is the boxcar average over the Window ending at the read
// instant; signal between windows is never observed. When fewer than
// two grid reads land inside the window, boundary reads at a and b
// stand in so the reported trace is still well-formed.
func (m *WindowedMeter) Measure(tr *power.Trace, a, b float64) (*power.Trace, error) {
	if err := checkWindow(tr, a, b); err != nil {
		return nil, err
	}
	start := a + m.phase
	var g power.Grid
	if start <= b {
		var err error
		if g, err = grid(start, b, m.spec.Period); err != nil {
			return nil, err
		}
		// The grid covers [start, b); a final read exactly at b is
		// legitimate here (there is no separate endpoint sample), so
		// extend the grid when it lands within epsilon of b.
		if g.At(g.N) <= b+m.spec.Period*1e-9 {
			g.N++
		}
	}
	out := make([]power.Sample, 0, g.N+2)
	cur := tr.Cursor()
	if g.N == 0 || start > a {
		// The grid missed the window head (or the window entirely):
		// anchor the reported trace with a boundary read at a.
		v, err := m.read(tr, cur, a)
		if err != nil {
			return nil, err
		}
		out = append(out, power.Sample{Time: a, Power: v})
	}
	for i := 0; i < g.N; i++ {
		x := g.At(i)
		if x > b {
			break
		}
		v, err := m.read(tr, cur, x)
		if err != nil {
			return nil, err
		}
		out = append(out, power.Sample{Time: x, Power: v})
	}
	if len(out) < 2 {
		// Degenerate tiny windows: close with a boundary read at b.
		v, err := m.read(tr, cur, b)
		if err != nil {
			return nil, err
		}
		out = append(out, power.Sample{Time: b, Power: v})
	}
	mMeasures.Inc()
	mSamples.Add(int64(len(out)))
	return power.NewTrace(out)
}

// AveragePower reports the time-weighted average of the reported
// samples over [a, b] — what a site derives from its nvidia-smi log.
// Unlike the periodic sampler there is no sample pinned to either
// boundary, so the unobserved head and tail of the window simply do
// not contribute.
func (m *WindowedMeter) AveragePower(tr *power.Trace, a, b float64) (power.Watts, error) {
	measured, err := m.Measure(tr, a, b)
	if err != nil {
		return 0, err
	}
	return measured.Average()
}

// Energy integrates the reported samples over the window: nvidia-smi
// exposes no energy counter, so a site integrates the poll log.
func (m *WindowedMeter) Energy(tr *power.Trace, a, b float64) (power.Joules, error) {
	avg, err := m.AveragePower(tr, a, b)
	if err != nil {
		return 0, err
	}
	return power.Joules(float64(avg) * (b - a)), nil
}

// OCCSpec describes an on-chip-controller meter: exact internal
// accumulation over read-out buckets, each reading passed through a
// characterized accuracy envelope, exposed at coarse resolution.
type OCCSpec struct {
	// BucketSeconds is the external read-out period (required,
	// positive). Internally the controller samples orders of magnitude
	// faster and accumulates exactly, so each read-out reports the true
	// bucket average through the envelope — no signal between read-outs
	// is lost, the defining contrast with WindowedSpec.
	BucketSeconds float64
	// GainErrorCV is the systematic per-instrument sensor-calibration
	// error, the persistent component of the accuracy envelope.
	GainErrorCV float64
	// EnvelopeFrac bounds the per-reading error: each bucket average is
	// additionally scaled by 1 + U(-EnvelopeFrac, +EnvelopeFrac).
	EnvelopeFrac float64
	// ReadoutResolutionWatts quantizes the external read-out register
	// (OCC-style integer-watt granularity). 0 disables.
	ReadoutResolutionWatts float64
}

// Validate checks the spec.
func (s OCCSpec) Validate() error {
	switch {
	case !finite(s.BucketSeconds) || !finite(s.GainErrorCV) ||
		!finite(s.EnvelopeFrac) || !finite(s.ReadoutResolutionWatts):
		return errors.New("meter: occ spec fields must be finite")
	case s.BucketSeconds <= 0:
		return fmt.Errorf("meter: occ BucketSeconds %v must be positive", s.BucketSeconds)
	case s.GainErrorCV < 0 || s.GainErrorCV > 0.1:
		return fmt.Errorf("meter: GainErrorCV %v outside [0, 0.1]", s.GainErrorCV)
	case s.EnvelopeFrac < 0 || s.EnvelopeFrac > 0.1:
		return fmt.Errorf("meter: EnvelopeFrac %v outside [0, 0.1]", s.EnvelopeFrac)
	case s.ReadoutResolutionWatts < 0:
		return errors.New("meter: ReadoutResolutionWatts must be non-negative")
	}
	return nil
}

// ModelName identifies the on-chip-controller architecture.
func (s OCCSpec) ModelName() string { return "occ" }

// NewInstrument draws one OCC instance with its sensor calibration
// fixed at construction.
func (s OCCSpec) NewInstrument(r *rng.Rand) (Sampler, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	gain := 1.0
	if s.GainErrorCV > 0 {
		gain = r.Normal(1, s.GainErrorCV)
	}
	return &OCCMeter{spec: s, gain: gain, r: r}, nil
}

// OCCMeter is one on-chip-controller instance.
type OCCMeter struct {
	spec OCCSpec
	gain float64
	r    *rng.Rand
}

// Gain returns the instrument's fixed sensor-calibration multiplier.
func (m *OCCMeter) Gain() float64 { return m.gain }

// walk accumulates the window ending at b into the read-out buckets of
// g, handing each bucket's bounds and reported value to emit in time
// order: bucket i spans [g.At(i), g.At(i)+BucketSeconds], and the final
// (possibly partial) bucket always ends at b. Each bucket's true average
// (exact: the internal sampling rate is far above any feature of the
// simulated traces) passes through gain, the bounded envelope draw, and
// read-out quantization.
func (m *OCCMeter) walk(tr *power.Trace, g power.Grid, b float64, emit func(lo, hi float64, v power.Watts)) error {
	cur := tr.Cursor()
	for i := 0; i < g.N; i++ {
		lo := g.At(i)
		hi := lo + m.spec.BucketSeconds
		if i == g.N-1 || hi > b {
			hi = b
		}
		avg, err := cur.AverageBetween(lo, hi)
		if err != nil {
			return err
		}
		v := float64(avg) * m.gain
		if f := m.spec.EnvelopeFrac; f > 0 {
			v *= 1 + (2*m.r.Float64()-1)*f
		}
		if q := m.spec.ReadoutResolutionWatts; q > 0 {
			v = math.Round(v/q) * q
		}
		if v <= 0 {
			v = 0
		}
		emit(lo, hi, power.Watts(v))
	}
	return nil
}

// Measure returns the read-out log: one sample per bucket end carrying
// that bucket's reported average, anchored with a sample at a so the
// reported trace spans the window. The log is what an operator scrapes;
// AveragePower and Energy use the exact bucketed accumulation instead
// of re-integrating the log — the architectural point of an
// energy-accounting meter.
func (m *OCCMeter) Measure(tr *power.Trace, a, b float64) (*power.Trace, error) {
	g, err := window(tr, a, b, m.spec.BucketSeconds)
	if err != nil {
		return nil, err
	}
	out := make([]power.Sample, 1, g.N+1)
	err = m.walk(tr, g, b, func(_, hi float64, v power.Watts) {
		out = append(out, power.Sample{Time: hi, Power: v})
	})
	if err != nil {
		return nil, err
	}
	out[0] = power.Sample{Time: a, Power: out[1].Power}
	mMeasures.Inc()
	mSamples.Add(int64(len(out)))
	return power.NewTrace(out)
}

// energy is the controller's accumulated bucket energy over [a, b]: each
// reported bucket average times its length, summed in time order.
func (m *OCCMeter) energy(tr *power.Trace, a, b float64) (float64, error) {
	g, err := window(tr, a, b, m.spec.BucketSeconds)
	if err != nil {
		return 0, err
	}
	var sum float64
	err = m.walk(tr, g, b, func(lo, hi float64, v power.Watts) {
		sum += float64(v) * (hi - lo)
	})
	return sum, err
}

// AveragePower reports the bucket-length-weighted average over [a, b]:
// the controller's own accumulation, not a post-hoc integral of the
// read-out log.
func (m *OCCMeter) AveragePower(tr *power.Trace, a, b float64) (power.Watts, error) {
	sum, err := m.energy(tr, a, b)
	if err != nil {
		return 0, err
	}
	return power.Watts(sum / (b - a)), nil
}

// Energy reports the accumulated bucket energy over [a, b].
func (m *OCCMeter) Energy(tr *power.Trace, a, b float64) (power.Joules, error) {
	sum, err := m.energy(tr, a, b)
	if err != nil {
		return 0, err
	}
	return power.Joules(sum), nil
}
