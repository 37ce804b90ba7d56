// Package hpl models the progression of a High-Performance Linpack run:
// a blocked right-looking LU factorization whose trailing matrix shrinks
// step by step. The model yields the run's duration, its achieved
// performance (Rmax), and — most importantly for this paper — the compute
// utilization as a function of time, which is what makes GPU in-core runs
// short with a steep power tail while CPU out-of-core runs are long and
// flat (Section 3, Figure 1).
package hpl

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"nodevar/internal/power"
)

// Config describes an HPL run on a homogeneous machine.
type Config struct {
	// MatrixOrder is the problem size N.
	MatrixOrder int
	// BlockSize is the panel/block width NB.
	BlockSize int
	// Nodes is the number of participating nodes.
	Nodes int
	// NodePeak is the per-node peak floating-point rate.
	NodePeak power.GFlops
	// PeakEfficiency is the fraction of peak achieved on a very large
	// trailing matrix (HPL efficiency, typically 0.6-0.9 for CPU systems,
	// lower for accelerators).
	PeakEfficiency float64
	// TailKnee controls how quickly update (DGEMM) efficiency collapses as
	// the trailing matrix shrinks:
	// efficiency(m) = PeakEfficiency * m/(m + TailKnee*N).
	// Small values (~0.002) give the flat profile of long CPU runs; large
	// values (~0.05+) contribute to the pronounced tail of in-core GPU
	// runs.
	TailKnee float64
	// PanelFraction is the fraction of machine peak achieved during the
	// panel factorization, which runs on the host at a much lower rate
	// than the trailing update. On accelerated systems this is small
	// (~0.01-0.03): late steps are then dominated by panel time during
	// which the accelerators idle, which is what produces the steep
	// power tail of in-core GPU HPL. On CPU systems ~0.1-0.3 keeps the
	// profile flat.
	PanelFraction float64
	// StepOverhead is a fixed per-step time in seconds (pivot search,
	// panel broadcast, host-device synchronization) during which the
	// compute units idle entirely. It is what keeps late steps from
	// collapsing to zero wall time and produces the long low-power tail
	// of in-core GPU runs; CPU systems use values near zero.
	StepOverhead float64
	// SetupTime and TeardownTime are the non-core phases before and after
	// the timed computation, in seconds.
	SetupTime    float64
	TeardownTime float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.MatrixOrder <= 0:
		return errors.New("hpl: MatrixOrder must be positive")
	case c.BlockSize <= 0 || c.BlockSize > c.MatrixOrder:
		return fmt.Errorf("hpl: BlockSize %d outside (0, %d]", c.BlockSize, c.MatrixOrder)
	case c.Nodes <= 0:
		return errors.New("hpl: Nodes must be positive")
	case c.NodePeak <= 0:
		return errors.New("hpl: NodePeak must be positive")
	case c.PeakEfficiency <= 0 || c.PeakEfficiency > 1:
		return fmt.Errorf("hpl: PeakEfficiency %v outside (0, 1]", c.PeakEfficiency)
	case c.TailKnee < 0:
		return errors.New("hpl: TailKnee must be non-negative")
	case c.PanelFraction <= 0 || c.PanelFraction > 1:
		return fmt.Errorf("hpl: PanelFraction %v outside (0, 1]", c.PanelFraction)
	case c.StepOverhead < 0:
		return errors.New("hpl: StepOverhead must be non-negative")
	case c.SetupTime < 0 || c.TeardownTime < 0:
		return errors.New("hpl: phase times must be non-negative")
	}
	return nil
}

// Step is one panel step of the factorization.
type Step struct {
	// Start is the step's start time in seconds from the beginning of the
	// core phase.
	Start float64
	// Duration is the step's wall time in seconds.
	Duration float64
	// Trailing is the trailing-matrix order at the start of the step.
	Trailing int
	// Utilization is the machine compute utilization during the step,
	// normalized so a full-sized trailing matrix gives 1.0.
	Utilization float64
	// Flops is the floating-point work performed in the step.
	Flops float64
}

// Run is a completed HPL progression.
type Run struct {
	Config Config
	Steps  []Step
	// CoreDuration is the core-phase wall time in seconds.
	CoreDuration float64
	// TotalFlops is 2/3 N³ + 3/2 N² (the HPL operation count).
	TotalFlops float64
	// Rmax is the achieved performance over the core phase.
	Rmax power.GFlops

	stepStarts []float64
}

// efficiency returns the achieved fraction of machine peak for a trailing
// matrix of order m.
func (c Config) efficiency(m int) float64 {
	knee := c.TailKnee * float64(c.MatrixOrder)
	return c.PeakEfficiency * float64(m) / (float64(m) + knee)
}

// Simulate computes the full progression.
func Simulate(c Config) (*Run, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	steps := make([]Step, 0, (c.MatrixOrder+c.BlockSize-1)/c.BlockSize)
	now := c.progress(func(s Step) { steps = append(steps, s) })
	nf := float64(c.MatrixOrder)
	totalFlops := 2.0/3.0*nf*nf*nf + 1.5*nf*nf
	run := &Run{
		Config:       c,
		Steps:        steps,
		CoreDuration: now,
		TotalFlops:   totalFlops,
		Rmax:         power.GFlops(totalFlops / now / 1e9),
	}
	run.stepStarts = make([]float64, len(steps))
	for i, s := range steps {
		run.stepStarts[i] = s.Start
	}
	return run, nil
}

// progress walks the panel steps of a validated configuration in order
// and returns the core-phase duration, their sum. step, when non-nil,
// receives each step; the order search passes nil and keeps none.
func (c Config) progress(step func(Step)) float64 {
	n := c.MatrixOrder
	nb := c.BlockSize
	machinePeak := float64(c.NodePeak) * float64(c.Nodes) * 1e9 // flops/s

	nSteps := (n + nb - 1) / nb
	now := 0.0
	for k := 0; k < nSteps; k++ {
		m := n - k*nb
		width := nb
		if m < nb {
			width = m
		}
		// Trailing update: 2*width*m² flops at DGEMM efficiency.
		updateFlops := 2 * float64(width) * float64(m) * float64(m)
		eff := c.efficiency(m)
		updateTime := updateFlops / (machinePeak * eff)
		// Panel factorization + solve: ~m*width² flops at the (much
		// lower) host rate. On accelerated systems this serial fraction
		// dominates small trailing steps and the accelerators idle.
		panelFlops := float64(m) * float64(width) * float64(width)
		panelTime := panelFlops / (machinePeak * c.PanelFraction)
		dur := updateTime + panelTime + c.StepOverhead
		if step != nil {
			// Utilization: rate-weighted activity normalized so
			// full-speed DGEMM on a huge trailing matrix is 1.0; the
			// fixed overhead contributes zero activity.
			util := (updateTime*eff + panelTime*c.PanelFraction) /
				(dur * c.PeakEfficiency)
			step(Step{
				Start:       now,
				Duration:    dur,
				Trailing:    m,
				Utilization: util,
				Flops:       updateFlops + panelFlops,
			})
		}
		now += dur
	}
	return now
}

// UtilizationAt returns the machine utilization at core-phase time t
// (seconds). Outside [0, CoreDuration] it returns 0, representing the
// setup and teardown phases.
func (r *Run) UtilizationAt(t float64) float64 {
	if t < 0 || t >= r.CoreDuration || len(r.Steps) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(r.stepStarts, t)
	if i == len(r.stepStarts) || r.stepStarts[i] > t {
		i--
	}
	return r.Steps[i].Utilization
}

// MeanUtilization returns the time-weighted mean utilization over the
// core phase.
func (r *Run) MeanUtilization() float64 {
	var acc float64
	for _, s := range r.Steps {
		acc += s.Utilization * s.Duration
	}
	return acc / r.CoreDuration
}

// SegmentUtilization returns the time-weighted mean utilization over the
// normalized core-phase segment [lo, hi] (fractions of CoreDuration).
func (r *Run) SegmentUtilization(lo, hi float64) float64 {
	if !(lo >= 0 && lo < hi && hi <= 1) {
		panic("hpl: invalid segment")
	}
	a := lo * r.CoreDuration
	b := hi * r.CoreDuration
	var acc float64
	for _, s := range r.Steps {
		s0, s1 := s.Start, s.Start+s.Duration
		o0, o1 := math.Max(a, s0), math.Min(b, s1)
		if o1 > o0 {
			acc += s.Utilization * (o1 - o0)
		}
	}
	return acc / (b - a)
}

// MatrixOrderForRuntime returns the matrix order N whose simulated core
// phase lasts approximately target seconds for the given configuration
// template (its MatrixOrder field is ignored). The search is monotone in
// N, so a simple doubling-plus-bisection suffices.
func MatrixOrderForRuntime(template Config, target float64) (int, error) {
	if target <= 0 {
		return 0, errors.New("hpl: target runtime must be positive")
	}
	duration := func(n int) (float64, error) {
		c := template
		c.MatrixOrder = n
		if c.BlockSize > n {
			c.BlockSize = n
		}
		if err := c.Validate(); err != nil {
			return 0, err
		}
		return c.progress(nil), nil
	}
	lo := template.BlockSize
	if lo < 1 {
		lo = 1
	}
	hi := lo * 2
	for {
		d, err := duration(hi)
		if err != nil {
			return 0, err
		}
		if d >= target {
			break
		}
		if hi > 1<<28 {
			return 0, errors.New("hpl: target runtime unreachably long")
		}
		hi *= 2
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		d, err := duration(mid)
		if err != nil {
			return 0, err
		}
		if d < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}
