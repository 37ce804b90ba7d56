package main

import (
	"runtime"

	"nodevar/internal/obs"
)

// metricDef is one metric of the catalog. BENCHMARK.json is generated
// from it (see -spec), and the schema test holds every run to it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move; "no move" predictions are part of the claim.
	Moves string
}

// endToEnd are the metrics a user sees. Every workload reports every
// one of them, so each is defined for a pass (repro-all) and for a
// request (the serving workloads) alike.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "capacity_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "ok_rate", Unit: "fraction", Better: "higher", Bound: 0.01},
	{Name: "slo_ok_rate", Unit: "fraction", Better: "higher", Bound: 0.02},
}

// What each group of per-layer metrics should move. "wall_s" is
// repro-all's p50_ms; "class" latencies are serve-mixed's per-class
// medians, printed above the result line.
const (
	movesStats  = "wall_s@repro-all; p50_ms,capacity_rps@coverage-fleet; no move@serve-mixed"
	movesSim    = "class distortion_p50_ms,capacity_rps@serve-mixed; slight wall_s@repro-all; no move@coverage-fleet"
	movesServer = "class hit_p50_ms,ingest_p50_ms,capacity_rps@serve-mixed; barely coverage-fleet"
	movesDist   = "p50_ms,tail_ms@coverage-fleet only"
	movesFleet  = "class ingest_p50_ms,fleet_read_p50_ms@serve-mixed only"
	movesCore   = "wall_s@repro-all only"
	movesCalib  = "setup_s,wall_s@repro-all; stays 0 on the serving workloads, which never calibrate"
)

// perLayer are the traced run's metrics. Timings come from replaying
// the workload's generated inputs at each layer's public function;
// counts and ratios are deltas of the program's obs counters over the
// workload's timed window, and read 0 on a workload that never enters
// the layer.
var perLayer = append([]metricDef{
	{Name: "rng.multinomial_ns", Unit: "ns", Better: "lower", Moves: movesStats},
	{Name: "rng.binomial_ns", Unit: "ns", Better: "lower", Moves: movesStats},
	{Name: "sampling.study_ms", Unit: "ms", Better: "lower", Moves: movesStats},
	{Name: "sampling.replicate_ns", Unit: "ns", Better: "lower", Moves: movesStats},
	{Name: "sampling.alloc_b_per_study", Unit: "B", Better: "lower", Moves: movesStats},
	{Name: "sampling.bootstrap.replicates", Unit: "count/op", Better: "lower", Moves: "must repeat exactly; 0@serve-mixed after warm-up"},
	{Name: "core.render_ms", Unit: "ms", Better: "lower", Moves: movesCore},
	{Name: "core.parallel_speedup", Unit: "ratio", Better: "higher", Moves: movesCore},
	{Name: "core.critical_exp_s", Unit: "s", Better: "lower", Moves: movesCore},
	{Name: "systems.calibrated_trace_ms", Unit: "ms", Better: "lower", Moves: "setup_s@all"},
	{Name: "systems.calibration_cache.hit_ratio", Unit: "ratio", Better: "higher", Moves: movesCalib},
	{Name: "systems.calibration_cache.hits", Unit: "count", Better: "higher", Moves: movesCalib},
	{Name: "systems.calibration_cache.misses", Unit: "count", Better: "lower", Moves: movesCalib},
	{Name: "hpl.simulate_ms", Unit: "ms", Better: "lower", Moves: movesSim},
	{Name: "core.distortion_target_ms", Unit: "ms", Better: "lower", Moves: movesSim},
	{Name: "cluster.ticks_per_op", Unit: "count/op", Better: "lower", Moves: movesSim},
	{Name: "power.trace.cursor_ratio", Unit: "ratio", Better: "higher", Moves: movesSim},
	{Name: "meter.measure_us.periodic", Unit: "us", Better: "lower", Moves: movesSim},
	{Name: "meter.measure_us.windowed", Unit: "us", Better: "lower", Moves: movesSim},
	{Name: "meter.measure_us.occ", Unit: "us", Better: "lower", Moves: movesSim},
	{Name: "meter.samples_per_op", Unit: "count/op", Better: "lower", Moves: movesSim},
	{Name: "methodology.compare_meters_ms", Unit: "ms", Better: "lower", Moves: movesSim},
	{Name: "server.hit_us", Unit: "us", Better: "lower", Moves: movesServer},
	{Name: "server.hit_allocs", Unit: "count", Better: "lower", Moves: movesServer},
	{Name: "server.ingest_us", Unit: "us", Better: "lower", Moves: movesServer},
	{Name: "server.cache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "must be 0@coverage-fleet; " + movesServer},
	{Name: "server.cache.hits", Unit: "count", Better: "higher", Moves: movesServer},
	{Name: "server.cache.misses", Unit: "count", Better: "lower", Moves: movesServer},
	{Name: "server.shed", Unit: "count", Better: "lower", Moves: "must be 0@all"},
	{Name: "server.inflight_peak", Unit: "count", Better: "lower", Moves: movesServer},
	{Name: "dist.overhead_ms", Unit: "ms", Better: "lower", Moves: movesDist},
	{Name: "dist.remote_ok_ratio", Unit: "ratio", Better: "higher", Moves: movesDist},
	{Name: "dist.jobs.dispatched", Unit: "count", Better: "lower", Moves: movesDist},
	{Name: "dist.jobs.rerouted", Unit: "count", Better: "lower", Moves: "must be 0; " + movesDist},
	{Name: "dist.jobs.degraded_local", Unit: "count", Better: "lower", Moves: "must be 0; " + movesDist},
	{Name: "dist.frames_per_job", Unit: "count/op", Better: "lower", Moves: movesDist},
	{Name: "dist.worker_skew", Unit: "ratio", Better: "lower", Moves: movesDist},
	{Name: "fleet.ingest_us_per_sample", Unit: "us", Better: "lower", Moves: movesFleet},
	{Name: "fleet.snapshot_us", Unit: "us", Better: "lower", Moves: movesFleet},
	{Name: "fleet.outliers_us", Unit: "us", Better: "lower", Moves: movesFleet},
	{Name: "fleet.plan_us", Unit: "us", Better: "lower", Moves: movesFleet},
	{Name: "fleet.duplicate_ratio", Unit: "ratio", Better: "lower", Moves: "must equal the planned share exactly@serve-mixed"},
	{Name: "obs.request_trace_us", Unit: "us", Better: "lower", Moves: "class hit_p50_ms@serve-mixed"},
	{Name: "obs.bench_trace_overhead", Unit: "fraction", Better: "lower", Moves: "validity of the traced run"},
	{Name: "runtime.gc_cycles_per_op", Unit: "count/op", Better: "lower", Moves: "tail_ms@all"},
	{Name: "runtime.gc_pause_ms_per_op", Unit: "ms", Better: "lower", Moves: "tail_ms@all"},
	{Name: "gen.lag_ms", Unit: "ms", Better: "lower", Moves: "run validity, not program speed"},
	{Name: "gen.conn_wait_ms", Unit: "ms", Better: "lower", Moves: "run validity, not program speed"},
}, append(expMetrics(), selfMetrics()...)...)

// experiments are the ids core.IDs returns, one core.exp_s metric each.
var experiments = []string{"ablation", "figure1", "figure2", "figure3", "figure4", "gaming", "meters",
	"rules", "table1", "table2", "table3", "table4", "table5", "variance"}

func expMetrics() []metricDef {
	var out []metricDef
	for _, id := range experiments {
		out = append(out, metricDef{Name: "core.exp_s." + id, Unit: "s", Better: "lower", Moves: movesCore})
	}
	return out
}

// layers name the span layers whose self time the traced run reports.
var layers = []string{"bench", "rng", "sampling", "core", "report", "systems", "hpl", "cluster",
	"meter", "methodology", "server", "dist", "fleet"}

func selfMetrics() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{Name: "self_ms." + l, Unit: "ms", Better: "lower",
			Moves: "where the traced run's time went"})
	}
	return out
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// counters snapshots the obs counters the per-layer metrics read.
type counters map[string]int64

var counterNames = []string{
	"sampling.bootstrap.replicates",
	"systems.calibration_cache.hits", "systems.calibration_cache.misses",
	"server.cache.hits", "server.cache.misses", "server.cache.evictions", "server.shed",
	"dist.jobs.dispatched", "dist.jobs.remote_ok", "dist.jobs.rerouted", "dist.jobs.degraded_local",
	"dist.worker.jobs", "dist.worker.frames_streamed",
	"fleet.samples_accepted", "fleet.samples_duplicate",
	"cluster.ticks", "meter.samples",
	"power.trace.cursor_fastpath_reads", "power.trace.at_slowpath_reads",
}

func readCounters() counters {
	c := counters{}
	for _, n := range counterNames {
		c[n] = obs.Default().Counter(n).Value()
	}
	return c
}

// sub returns c - before.
func (c counters) sub(before counters) counters {
	out := counters{}
	for n, v := range c {
		out[n] = v - before[n]
	}
	return out
}

// ratio is a/(a+b), or 0 when both are 0.
func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// memStats is the runtime's allocation and GC state at one instant.
type memStats struct {
	alloc   uint64
	mallocs uint64
	gcs     uint32
	pauseNs uint64
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{m.TotalAlloc, m.Mallocs, m.NumGC, m.PauseTotalNs}
}

// window is what the program did during a workload's timed window.
type window struct {
	ops      int
	mem0     memStats
	mem1     memStats
	counters counters
}

func (w window) allocMBPerOp() float64 {
	return float64(w.mem1.alloc-w.mem0.alloc) / 1e6 / float64(max(w.ops, 1))
}
