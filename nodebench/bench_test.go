package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nodevar/internal/core"
)

// smokeRun runs one workload at the self-tests' tiny scale.
func smokeRun(t *testing.T, workload string, trace bool, mod func(*options)) *result {
	t.Helper()
	o := options{workload: workload, seed: 2015, dur: 300 * time.Millisecond, trace: trace,
		out: t.TempDir(), scale: smoke}
	if mod != nil {
		mod(&o)
	}
	res, notes, err := run(o)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, strings.Join(notes, "\n"))
	}
	if res.Attempted < 1 || res.Failed < 0 || res.Failed > res.Attempted {
		t.Fatalf("%s: attempted %d failed %d", workload, res.Attempted, res.Failed)
	}
	return res
}

// checkSchema holds a result to the catalog: every metric, each with its
// unit and a finite value, and nothing else.
func checkSchema(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, catalog has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
		case m.Value != m.Value: // NaN
			t.Errorf("metric %s is NaN", d.Name)
		}
	}
	// The printed line must survive JSON, which has no NaN or Inf.
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
}

func TestSmokeWorkloads(t *testing.T) {
	for _, w := range []string{"repro-all", "coverage-fleet", "serve-mixed"} {
		t.Run(w, func(t *testing.T) {
			res := smokeRun(t, w, false, nil)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
			}
			checkSchema(t, res, endToEnd)
			for _, n := range []string{"p50_ms", "tail_ms", "capacity_rps", "setup_s", "alloc_mb_per_op"} {
				if v := res.Metrics[n].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", n, v)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, w := range []string{"repro-all", "coverage-fleet", "serve-mixed"} {
		t.Run(w, func(t *testing.T) {
			var dir string
			res := smokeRun(t, w, true, func(o *options) { dir = o.out })
			if !res.Correct {
				t.Fatalf("traced run incorrect: %+v", res)
			}
			checkSchema(t, res, perLayer)
			b, err := os.ReadFile(filepath.Join(dir, "spans-"+w+"-2015.json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				SelfS map[string]float64 `json:"self_s"`
				Spans []span             `json:"spans"`
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatal(err)
			}
			for _, l := range layers {
				if !(doc.SelfS[l] > 0) {
					t.Errorf("layer %s has no self time in the span file", l)
				}
			}
			v := func(n string) float64 { return res.Metrics[n].Value }
			switch w {
			case "coverage-fleet":
				if v("server.cache.hit_ratio") != 0 || v("dist.jobs.degraded_local") != 0 || v("dist.jobs.rerouted") != 0 {
					t.Errorf("fleet workload: hit ratio %v, degraded %v, rerouted %v; want all 0",
						v("server.cache.hit_ratio"), v("dist.jobs.degraded_local"), v("dist.jobs.rerouted"))
				}
				if v("dist.remote_ok_ratio") != 1 {
					t.Errorf("dist.remote_ok_ratio = %v, want 1", v("dist.remote_ok_ratio"))
				}
			case "serve-mixed":
				if v("sampling.bootstrap.replicates") != 0 {
					t.Errorf("serve-mixed ran %v bootstrap replicates per request after warm-up", v("sampling.bootstrap.replicates"))
				}
				if v("server.cache.hits") == 0 {
					t.Error("serve-mixed saw no cache hits")
				}
			}
		})
	}
}

// tamperCoverage rewrites every /v1/coverage answer with edit.
func tamperCoverage(edit func([]byte) []byte) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/coverage" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(edit(rec.Body.Bytes()))
		})
	}
}

func TestCorruptedBodyIsAFailure(t *testing.T) {
	// Changing one digit of every coverage answer must fail the
	// reference checks of coverage-fleet.
	corrupt := tamperCoverage(func(b []byte) []byte {
		return bytes.Replace(b, []byte(`"replicates":`), []byte(`"replicates":9`), 1)
	})
	res := smokeRun(t, "coverage-fleet", false, func(o *options) { o.tamper = corrupt })
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted bodies passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if res.Metrics["ok_rate"].Value >= 1 {
		t.Errorf("ok_rate %v with corrupted bodies", res.Metrics["ok_rate"].Value)
	}

	// On serve-mixed, a hit whose bytes differ from the config's first
	// answer is a failure: corrupt every answer after the warm-up's.
	var n atomic.Int64
	late := tamperCoverage(func(b []byte) []byte {
		if n.Add(1) <= int64(smoke.workingSet) {
			return b
		}
		return append([]byte(" "), b...)
	})
	res = smokeRun(t, "serve-mixed", false, func(o *options) { o.scale.setups = 1; o.tamper = late })
	if res.Correct || res.Failed == 0 {
		t.Fatalf("changed hit bodies passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestDegradedAnswerIsAFailure(t *testing.T) {
	// Every answer after the set-up's warm-up studies claims it was
	// computed locally.
	var n atomic.Int64
	degrade := tamperCoverage(func(b []byte) []byte {
		if n.Add(1) <= warmStudies {
			return b
		}
		return bytes.Replace(b, []byte(`]}`), []byte(`],"degraded":true}`), 1)
	})
	res := smokeRun(t, "coverage-fleet", false, func(o *options) { o.tamper = degrade })
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("degraded answers: correct=%v failed=%d of %d, want every one failed", res.Correct, res.Failed, res.Attempted)
	}
}

type appendByte struct{ io.Writer }

func (a appendByte) Write(p []byte) (int, error) {
	if _, err := a.Writer.Write(append(append([]byte(nil), p...), '!')); err != nil {
		return 0, err
	}
	return len(p), nil
}

func TestNonIdenticalPassIsAFailure(t *testing.T) {
	res := smokeRun(t, "repro-all", false, func(o *options) {
		o.scale.minPasses = 2
		o.tamperPass = func(n int, w io.Writer) io.Writer {
			if n == 2 {
				return appendByte{w}
			}
			return w
		}
	})
	if res.Correct || res.Failed != 1 {
		t.Fatalf("a changed second pass: correct=%v failed=%d, want one failure", res.Correct, res.Failed)
	}
}

// TestBenchmarkJSON holds the committed BENCHMARK.json to the catalog
// and the catalog to the benchmark contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with bash nodebench/run.sh --spec > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	largest := 0.0
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("bad or repeated metric %q (unit %q)", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		largest = max(largest, d.Bound)
	}
	for _, d := range endToEnd {
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != largest {
		t.Error("setup_s must carry the largest bound")
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("%s does not say which end-to-end metric it should move", d.Name)
		}
	}
	for _, w := range gated {
		if workloads[w] == nil || why[w] == "" {
			t.Errorf("gated workload %q has no runner or no why", w)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(perLayer))
	}
	var ids []string
	for _, id := range core.IDs() {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	if strings.Join(ids, ",") != strings.Join(experiments, ",") {
		t.Errorf("core.exp_s metrics cover %v, core.IDs() is %v", experiments, ids)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "server", Start: 10, End: 60},
		{ID: 3, Parent: 1, Layer: "server", Start: 40, End: 90}, // overlaps span 2
		{ID: 4, Parent: 2, Layer: "dist", Start: 20, End: 30},
	}
	got := selfTimes(spans)
	want := map[string]float64{"bench": 20e-9, "server": 90e-9, "dist": 10e-9}
	for l, w := range want {
		if d := got[l] - w; d > 1e-18 || d < -1e-18 {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]float64{5: 1, 100: 0.9, 200: 0.95, 1000: 0.99, 2000: 0.995, 20000: 0.999} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}
