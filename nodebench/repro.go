package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"nodevar/internal/core"
	"nodevar/internal/systems"
)

// flagship are numbers the paper reproduction prints at seed 2015.
var flagship = []string{"398.7", "11503.3", "59.1", "581.93", "90.74", "774 MHz"}

func reproOptions(seed uint64, sc scale) core.Options {
	return core.Options{
		Seed:              seed,
		Replicates:        sc.reproReplicates,
		TraceSamples:      2000,
		MeasurementTrials: 200,
	}
}

// reproPass runs every experiment and renders every result to w.
func reproPass(ctx context.Context, opts core.Options, w io.Writer, rec *recorder) (time.Duration, error) {
	t0 := time.Now()
	root := rec.start("pass", "bench", nil)
	defer root.end()
	sp := rec.start("core.RunAllCtx", "core", root)
	results, err := core.RunAllCtx(ctx, opts)
	sp.end()
	if err != nil {
		return time.Since(t0), err
	}
	sp = rec.start("Result.Render", "report", root)
	defer sp.end()
	for _, r := range results {
		if err := r.Render(w); err != nil {
			return time.Since(t0), fmt.Errorf("render %s: %w", r.ID(), err)
		}
	}
	return time.Since(t0), nil
}

// runRepro is the researcher's path: one caller runs the whole paper
// reproduction at paper scale, pass after pass, and every pass must
// render the same bytes.
func runRepro(o options) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{limitMs: 60_000}
	opts := reproOptions(o.seed, o.scale)

	// Set-up: an empty calibration cache filled by a small warm-up pass.
	warm := opts
	warm.Replicates = min(2000, opts.Replicates)
	for i := 0; i < o.scale.setups; i++ {
		t0 := time.Now()
		systems.ResetCalibrationCache()
		if _, err := reproPass(ctx, warm, io.Discard, nil); err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}

	var first []byte
	var firstSum [sha256.Size]byte
	prevEnd := time.Now()
	pass := func(rec *recorder) {
		h := sha256.New()
		var buf bytes.Buffer
		w := io.Writer(h)
		if first == nil {
			w = io.MultiWriter(h, &buf)
		}
		if o.tamperPass != nil {
			w = o.tamperPass(len(out.lat)+1, w)
		}
		// A closed loop with one caller: each pass is due when the
		// previous one ends, so lag is the benchmark's own gap between
		// them and the wait for the caller's slot is the hand-off.
		ready := time.Now()
		out.lag = append(out.lag, ms(ready.Sub(prevEnd)))
		out.connWait = append(out.connWait, ms(time.Since(ready)))
		d, err := reproPass(ctx, opts, w, rec)
		prevEnd = time.Now()
		var sum [sha256.Size]byte
		copy(sum[:], h.Sum(nil))
		switch {
		case err != nil:
			err = fmt.Errorf("pass %d: %w", len(out.lat)+1, err)
		case first == nil:
			first, firstSum = buf.Bytes(), sum
			err = checkFlagship(o.seed, first)
		case sum != firstSum:
			err = fmt.Errorf("pass %d rendered different bytes from pass 1", len(out.lat)+1)
		}
		out.observe(ms(d), err)
	}
	measure := func(d time.Duration, rec *recorder) {
		t0 := time.Now()
		prevEnd = t0
		for n := 0; n < o.scale.minPasses || time.Since(t0) < d; n++ {
			pass(rec)
		}
	}

	c0, m0 := readCounters(), readMem()
	if o.trace {
		measure(o.dur/2, nil)
		untraced := median(out.lat)
		n := len(out.lat)
		measure(o.dur/2, o.rec)
		out.traceOverhead = median(out.lat[n:])/untraced - 1
	} else {
		measure(o.dur, nil)
	}
	out.win = window{ops: out.attempted, mem0: m0, mem1: readMem(), counters: readCounters().sub(c0)}
	// One caller's completion rate, from the median pass like the
	// serving workloads' median slice.
	out.capacity = 1000 / median(out.lat)
	return out, nil
}

// checkFlagship holds seed 2015's rendering to the paper's numbers.
func checkFlagship(seed uint64, text []byte) error {
	if seed != 2015 {
		return nil
	}
	for _, f := range flagship {
		if !bytes.Contains(text, []byte(f)) {
			return fmt.Errorf("seed 2015 output lacks flagship number %q", f)
		}
	}
	return nil
}
