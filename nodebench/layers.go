package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"nodevar/internal/core"
	"nodevar/internal/fleet"
	"nodevar/internal/hpl"
	"nodevar/internal/methodology"
	"nodevar/internal/power"
	"nodevar/internal/rng"
	"nodevar/internal/sampling"
	"nodevar/internal/server"
	"nodevar/internal/systems"
)

// replayInputs are the generated inputs the traced run replays at each
// layer's public function. A workload fills what it sent; fill
// generates the rest from the seed.
type replayInputs struct {
	coverage   []server.CoverageRequest
	hitBodies  [][]byte
	distortion []server.DistortionRequest
	ingest     [][]byte // server.IngestRequest bodies, in send order
}

func (in *replayInputs) fill(o options) {
	r := stream(o.seed, useReplay)
	for len(in.coverage) < o.scale.replay {
		in.coverage = append(in.coverage, coverageRequest(studySeed(r), o.scale.coverageReplicates))
	}
	for i := 0; len(in.hitBodies) < o.scale.replay; i++ {
		in.hitBodies = append(in.hitBodies, mustJSON(in.coverage[i]))
	}
	for k := 0; len(in.distortion) < o.scale.replay; k++ {
		in.distortion = append(in.distortion, distortionRequest(r, k))
	}
	p := newIngestPlan("replay", r.Uint64(), o.scale.fleetNodes, dupShare)
	for len(in.ingest) < o.scale.replay {
		req := p.request()
		req.prepare()
		in.ingest = append(in.ingest, req.body)
	}
}

// timeCalls runs fn n times per batch over five batches, each batch
// under one span, and returns the median time per call.
func timeCalls(rec *recorder, parent *spanRef, name, layer string, n int, fn func(i int)) time.Duration {
	per := make([]float64, 5)
	for b := range per {
		sp := rec.start(name, layer, parent)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[b] = float64(time.Since(t0)) / float64(n)
		sp.end()
	}
	return time.Duration(median(per))
}

// timed runs fn under one span and returns its duration.
func timed(rec *recorder, parent *spanRef, name, layer string, fn func() error) (time.Duration, error) {
	sp := rec.start(name, layer, parent)
	defer sp.end()
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// replay measures every layer on the workload's inputs and assembles
// the per-layer metrics.
func replay(o options, out *outcome) (map[string]float64, error) {
	in := out.replay
	in.fill(o)
	v := map[string]float64{}
	root := o.rec.start("replay", "bench", nil)
	steps := []func(options, *replayInputs, *spanRef, map[string]float64) error{
		replayRNG, replaySampling, replayDist, replayServer, replayFleet, replaySystems, replaySimulation, replayCore,
	}
	for _, step := range steps {
		if err := step(o, &in, root, v); err != nil {
			return nil, err
		}
	}
	w, ops := out.win, float64(max(out.win.ops, 1))
	d := w.counters
	v["sampling.bootstrap.replicates"] = float64(d["sampling.bootstrap.replicates"]) / ops
	v["systems.calibration_cache.hits"] = float64(d["systems.calibration_cache.hits"])
	v["systems.calibration_cache.misses"] = float64(d["systems.calibration_cache.misses"])
	v["systems.calibration_cache.hit_ratio"] = ratio(d["systems.calibration_cache.hits"], d["systems.calibration_cache.misses"])
	v["server.cache.hits"] = float64(d["server.cache.hits"])
	v["server.cache.misses"] = float64(d["server.cache.misses"])
	v["server.cache.hit_ratio"] = ratio(d["server.cache.hits"], d["server.cache.misses"])
	v["server.shed"] = float64(d["server.shed"])
	v["server.inflight_peak"] = out.layer["server.inflight_peak"]
	v["dist.jobs.dispatched"] = float64(d["dist.jobs.dispatched"])
	v["dist.remote_ok_ratio"] = ratio(d["dist.jobs.remote_ok"], d["dist.jobs.dispatched"]-d["dist.jobs.remote_ok"])
	v["dist.jobs.rerouted"] = float64(d["dist.jobs.rerouted"])
	v["dist.jobs.degraded_local"] = float64(d["dist.jobs.degraded_local"])
	v["dist.frames_per_job"] = float64(d["dist.worker.frames_streamed"]) / float64(max(d["dist.worker.jobs"], 1))
	v["dist.worker_skew"] = out.layer["dist.worker_skew"]
	v["fleet.duplicate_ratio"] = ratio(d["fleet.samples_duplicate"], d["fleet.samples_accepted"])
	v["obs.bench_trace_overhead"] = out.traceOverhead
	v["runtime.gc_cycles_per_op"] = float64(w.mem1.gcs-w.mem0.gcs) / ops
	v["runtime.gc_pause_ms_per_op"] = float64(w.mem1.pauseNs-w.mem0.pauseNs) / 1e6 / ops
	v["gen.lag_ms"] = quantile(append([]float64(nil), out.lag...), 0.99)
	v["gen.conn_wait_ms"] = quantile(append([]float64(nil), out.connWait...), 0.99)

	root.end()
	self := selfTimes(o.rec.snapshot())
	for _, l := range layers {
		v["self_ms."+l] = self[l] * 1e3
	}
	return v, nil
}

func replayRNG(o options, _ *replayInputs, root *spanRef, v map[string]float64) error {
	r := rng.New(o.seed)
	counts := make([]int, pilotSize)
	rest := lrz.TotalNodes - sampleSizes[len(sampleSizes)-1]
	v["rng.multinomial_ns"] = float64(timeCalls(o.rec, root, "rng.MultinomialEqual", "rng", 200,
		func(int) { r.MultinomialEqual(rest, counts) }))
	v["rng.binomial_ns"] = float64(timeCalls(o.rec, root, "rng.Binomial", "rng", 20000,
		func(int) { r.Binomial(rest, 0.5) }))
	return nil
}

func replaySampling(o options, in *replayInputs, root *spanRef, v map[string]float64) error {
	ctx := context.Background()
	var per []float64
	m0 := readMem()
	for _, req := range in.coverage {
		cfg, err := coverageConfig(req)
		if err != nil {
			return err
		}
		d, err := timed(o.rec, root, "sampling.CoverageStudyCtx", "sampling", func() error {
			_, err := sampling.CoverageStudyCtx(ctx, cfg)
			return err
		})
		if err != nil {
			return err
		}
		per = append(per, ms(d))
	}
	m1 := readMem()
	study := median(per)
	v["sampling.study_ms"] = study
	v["sampling.replicate_ns"] = study * 1e6 / float64(o.scale.coverageReplicates*len(sampleSizes))
	v["sampling.alloc_b_per_study"] = float64(m1.alloc-m0.alloc) / float64(len(in.coverage))
	return nil
}

// replayDist sends the same studies one at a time through a fresh
// frontend and two workers; dist.overhead_ms is their median latency
// less the in-process study time.
func replayDist(o options, in *replayInputs, root *spanRef, v map[string]float64) error {
	st, err := startStack(2, server.Config{}, nil)
	if err != nil {
		return err
	}
	defer st.close()
	c := newClient(1)
	defer c.CloseIdleConnections()
	var per []float64
	for _, cr := range in.coverage {
		req := &request{class: "coverage", method: http.MethodPost, path: "/v1/coverage", body: mustJSON(cr), check: notDegraded}
		d, err := timed(o.rec, root, "dist.Frontend.Coverage", "dist", func() error {
			return send(context.Background(), c, st.base, req, nil, nil)
		})
		if err != nil {
			return err
		}
		per = append(per, ms(d))
	}
	v["dist.overhead_ms"] = median(per) - v["sampling.study_ms"] // replaySampling ran first
	return nil
}

// serveUS is the median time of h.ServeHTTP on a recorder, with no
// socket, and the heap allocations per call.
func serveUS(o options, root *spanRef, name string, h http.Handler, method, path string, bodies [][]byte, n int) (us, allocs float64, err error) {
	for _, b := range bodies { // warm: the first answer of each body is computed
		if w := serveOnce(h, method, path, b); w.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("%s %s: status %d: %s", method, path, w.Code, w.Body.Bytes())
		}
	}
	d := timeCalls(o.rec, root, name, "server", n, func(i int) { serveOnce(h, method, path, bodies[i%len(bodies)]) })
	m0 := readMem()
	for i := 0; i < n; i++ {
		serveOnce(h, method, path, bodies[i%len(bodies)])
	}
	m1 := readMem()
	return float64(d) / 1e3, float64(m1.mallocs-m0.mallocs) / float64(n), nil
}

func serveOnce(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func replayServer(o options, in *replayInputs, root *spanRef, v map[string]float64) error {
	on := server.New(server.Config{}).Handler()
	off := server.New(server.Config{DisableTracing: true}).Handler()
	hit, allocs, err := serveUS(o, root, "server.Handler.ServeHTTP hit", on, http.MethodPost, "/v1/coverage", in.hitBodies, 200)
	if err != nil {
		return err
	}
	hitOff, _, err := serveUS(o, root, "server.Handler.ServeHTTP hit untraced", off, http.MethodPost, "/v1/coverage", in.hitBodies, 200)
	if err != nil {
		return err
	}
	v["server.hit_us"], v["server.hit_allocs"], v["obs.request_trace_us"] = hit, allocs, hit-hitOff

	// Each batch is served once into a fresh server, so every call does
	// the batch's planned work rather than re-sending duplicates.
	var per []float64
	ing := server.New(server.Config{}).Handler()
	for _, b := range in.ingest {
		d, err := timed(o.rec, root, "server.Handler.ServeHTTP ingest", "server", func() error {
			if w := serveOnce(ing, http.MethodPost, "/v1/ingest", b); w.Code != http.StatusOK {
				return fmt.Errorf("ingest: status %d: %s", w.Code, w.Body.Bytes())
			}
			return nil
		})
		if err != nil {
			return err
		}
		per = append(per, float64(d)/1e3)
	}
	v["server.ingest_us"] = median(per)
	return nil
}

func replayFleet(o options, in *replayInputs, root *spanRef, v map[string]float64) error {
	reg := fleet.NewRegistry(0, fleet.Config{})
	var total time.Duration
	samples := 0
	var id string
	for _, b := range in.ingest {
		var req server.IngestRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return err
		}
		batch := make([]fleet.Sample, len(req.Samples))
		for i, s := range req.Samples {
			batch[i] = fleet.Sample{Node: s.Node, Seq: s.Seq, Watts: s.Watts}
		}
		d, err := timed(o.rec, root, "fleet.Registry.Ingest", "fleet", func() error {
			_, err := reg.Ingest(req.Fleet, batch)
			return err
		})
		if err != nil {
			return err
		}
		total += d
		samples += len(batch)
		id = req.Fleet
	}
	v["fleet.ingest_us_per_sample"] = float64(total) / 1e3 / float64(samples)
	f := reg.Get(id)
	v["fleet.snapshot_us"] = float64(timeCalls(o.rec, root, "fleet.Fleet.Snapshot", "fleet", 50,
		func(int) { f.Snapshot(0.95) })) / 1e3
	v["fleet.outliers_us"] = float64(timeCalls(o.rec, root, "fleet.Fleet.Outliers", "fleet", 50,
		func(int) { f.Outliers(3) })) / 1e3
	var planErr error
	v["fleet.plan_us"] = float64(timeCalls(o.rec, root, "fleet.Fleet.PlanInputs", "fleet", 200, func(int) {
		nodes, _, mean, sd := f.PlanInputs()
		p := sampling.Plan{Confidence: 0.95, Accuracy: 0.01, CV: sd / mean, Population: nodes}
		if _, err := p.RequiredSampleSize(); err != nil {
			planErr = err
		}
	})) / 1e3
	return planErr
}

func replaySystems(o options, _ *replayInputs, root *spanRef, v map[string]float64) error {
	var per []float64
	for _, spec := range systems.Table2Systems() { // the presets core calibrates traces for
		d, err := timed(o.rec, root, "systems.CalibratedTraceUncached", "systems", func() error {
			_, _, err := systems.CalibratedTraceUncached(spec, 2000)
			return err
		})
		if err != nil {
			return fmt.Errorf("calibrate %s: %w", spec.Key, err)
		}
		per = append(per, ms(d))
	}
	v["systems.calibrated_trace_ms"] = median(per)
	return nil
}

// meterStudyRuntime mirrors the HPL core-phase length core's distortion
// study fits its matrix order to.
const meterStudyRuntime = 1800

func replaySimulation(o options, in *replayInputs, root *spanRef, v map[string]float64) error {
	models, err := distortionModels()
	if err != nil {
		return err
	}
	colosse := mustSpec("colosse")
	var simMS, targetMS, compareMS []float64
	measureUS := map[string][]float64{}
	c0 := readCounters()
	var compareC counters
	for _, dr := range in.distortion {
		cfg := colosse.HPL
		cfg.Nodes = dr.Nodes
		if cfg.MatrixOrder, err = hpl.MatrixOrderForRuntime(cfg, meterStudyRuntime); err != nil {
			return err
		}
		d, err := timed(o.rec, root, "hpl.Simulate", "hpl", func() error { _, err := hpl.Simulate(cfg); return err })
		if err != nil {
			return err
		}
		simMS = append(simMS, ms(d))

		var target methodology.Target
		d, err = timed(o.rec, root, "core.DistortionTarget", "cluster", func() error {
			target, err = core.DistortionTarget(dr.System, dr.Nodes, *dr.Entropy, dr.Seed)
			return err
		})
		if err != nil {
			return err
		}
		targetMS = append(targetMS, ms(d))

		a, b := target.System.Start(), target.System.End()
		for _, m := range models {
			inst, err := m.Model.NewInstrument(rng.New(dr.Seed))
			if err != nil {
				return err
			}
			traces := make([]*power.Trace, min(16, target.TotalNodes))
			for i := range traces {
				traces[i] = target.NodeTrace(i)
			}
			nodes := len(traces)
			d, err := timed(o.rec, root, "meter.Sampler.Measure", "meter", func() error {
				for _, tr := range traces {
					if _, err := inst.Measure(tr, a, b); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			name := m.Model.ModelName()
			measureUS[name] = append(measureUS[name], float64(d)/1e3/float64(nodes))
		}

		before := readCounters()
		d, err = timed(o.rec, root, "methodology.CompareMeters", "methodology", func() error {
			_, err := methodology.CompareMeters(target, models, methodology.DistortionConfig{PilotNodes: dr.PilotSize, Seed: dr.Seed})
			return err
		})
		if err != nil {
			return err
		}
		compareMS = append(compareMS, ms(d))
		compareC = addCounters(compareC, readCounters().sub(before))
	}
	all := readCounters().sub(c0)
	n := float64(len(in.distortion))
	v["hpl.simulate_ms"] = median(simMS)
	v["core.distortion_target_ms"] = median(targetMS)
	v["methodology.compare_meters_ms"] = median(compareMS)
	v["cluster.ticks_per_op"] = float64(all["cluster.ticks"]) / n
	v["meter.samples_per_op"] = float64(compareC["meter.samples"]) / n
	v["power.trace.cursor_ratio"] = ratio(all["power.trace.cursor_fastpath_reads"], all["power.trace.at_slowpath_reads"])
	for _, name := range []string{"periodic", "windowed", "occ"} {
		if len(measureUS[name]) == 0 {
			return fmt.Errorf("no %s meter among the distortion models", name)
		}
		v["meter.measure_us."+name] = median(measureUS[name])
	}
	return nil
}

func addCounters(a, b counters) counters {
	out := counters{}
	for n, x := range b {
		out[n] = a[n] + x
	}
	return out
}

// replayCore runs each experiment alone, renders them, and one
// RunAllCtx over all of them, at the options repro-all uses.
func replayCore(o options, _ *replayInputs, root *spanRef, v map[string]float64) error {
	ctx := context.Background()
	opts := reproOptions(o.seed, o.scale)
	var results []core.Result
	sum, critical := 0.0, 0.0
	for _, id := range experiments {
		var res core.Result
		d, err := timed(o.rec, root, "core.RunCtx "+id, "core", func() error {
			var err error
			res, err = core.RunCtx(ctx, core.ID(id), opts)
			return err
		})
		if err != nil {
			return err
		}
		results = append(results, res)
		v["core.exp_s."+id] = d.Seconds()
		sum += d.Seconds()
		critical = max(critical, d.Seconds())
	}
	d, err := timed(o.rec, root, "Result.Render", "report", func() error {
		for _, r := range results {
			if err := r.Render(io.Discard); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["core.render_ms"] = ms(d)
	all, err := timed(o.rec, root, "core.RunAllCtx", "core", func() error {
		_, err := core.RunAllCtx(ctx, opts)
		return err
	})
	if err != nil {
		return err
	}
	v["core.parallel_speedup"] = sum / all.Seconds()
	v["core.critical_exp_s"] = critical
	return nil
}
