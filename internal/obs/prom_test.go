package obs_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodevar/internal/obs"
	"nodevar/internal/obs/obstest"
)

// goldenRegistry builds a registry exercising every exposition shape:
// scalar counter/float counter/gauge, a histogram, and labelled families
// including values that need escaping.
func goldenRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("server.requests").Add(42)
	r.FloatCounter("parallel.worker_busy_seconds").Add(1.5)
	r.Gauge("server.inflight").Set(3)
	h := r.Histogram("server.request_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	cv := r.CounterVec("server.endpoint_requests", "endpoint", "status")
	cv.With("coverage", "2xx").Add(7)
	cv.With("coverage", "5xx").Inc()
	cv.With(`we"ird\la`+"\n"+`bel`, "2xx").Inc()
	hv := r.HistogramVec("server.endpoint_seconds", []float64{0.1, 1}, "endpoint", "status")
	hv.With("rules", "2xx").Observe(0.05)
	hv.With("rules", "2xx").Observe(2)
	r.GaugeVec("slo.error_budget_remaining", "endpoint").With("coverage").Set(0.25)
	return r
}

// TestWritePrometheusGolden locks the exposition bytes: deterministic
// family and sample ordering, sanitized names, escaped label values and
// the full _bucket/_sum/_count histogram triple. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/obs.
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prometheus_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("prometheus exposition differs from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	// Two writes must be byte-identical (ordering is deterministic).
	var again bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two writes of identical metric state differ")
	}
}

// TestPrometheusRoundTrip feeds WritePrometheus output through the
// in-repo parser and validator: every family and sample survives, label
// escapes decode back to the original values, and the histogram
// invariants hold.
func TestPrometheusRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obstest.ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if err := obstest.ValidatePrometheus(fams); err != nil {
		t.Fatalf("validate: %v\n%s", err, buf.String())
	}

	reqs, ok := fams["server_requests"]
	if !ok || reqs.Type != "counter" {
		t.Fatalf("server_requests missing or mistyped: %+v", reqs)
	}
	if len(reqs.Samples) != 1 || reqs.Samples[0].Value != 42 {
		t.Fatalf("server_requests samples %+v", reqs.Samples)
	}

	ep := fams["server_endpoint_requests"]
	if ep == nil {
		t.Fatal("labelled family missing")
	}
	foundWeird := false
	for _, s := range ep.Samples {
		if s.Labels["endpoint"] == `we"ird\la`+"\n"+`bel` {
			foundWeird = true
		}
	}
	if !foundWeird {
		t.Error("escaped label value did not round-trip")
	}

	hist := fams["server_request_seconds"]
	if hist == nil || hist.Type != "histogram" {
		t.Fatal("histogram family missing")
	}
	var count, sum float64
	for _, s := range hist.Samples {
		switch s.Name {
		case "server_request_seconds_count":
			count = s.Value
		case "server_request_seconds_sum":
			sum = s.Value
		}
	}
	if count != 4 || math.Abs(sum-5.555) > 1e-9 {
		t.Fatalf("histogram count/sum %v/%v, want 4/5.555", count, sum)
	}
}

func TestValidatePrometheusCatchesBrokenHistograms(t *testing.T) {
	for name, body := range map[string]string{
		"non-cumulative": `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`,
		"missing +Inf": `# TYPE h histogram
h_bucket{le="1"} 5
h_sum 1
h_count 5
`,
		"inf != count": `# TYPE h histogram
h_bucket{le="1"} 2
h_bucket{le="+Inf"} 3
h_sum 1
h_count 5
`,
		"missing sum": `# TYPE h histogram
h_bucket{le="+Inf"} 5
h_count 5
`,
	} {
		fams, err := obstest.ParsePrometheus(strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if err := obstest.ValidatePrometheus(fams); err == nil {
			t.Errorf("%s: validator accepted a broken histogram", name)
		}
	}
}

func TestValidatePrometheusCatchesNaNAndNegativeCounter(t *testing.T) {
	fams, err := obstest.ParsePrometheus(strings.NewReader("# TYPE c counter\nc NaN\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := obstest.ValidatePrometheus(fams); err == nil {
		t.Error("NaN sample accepted")
	}
	fams, err = obstest.ParsePrometheus(strings.NewReader("# TYPE c counter\nc -1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := obstest.ValidatePrometheus(fams); err == nil {
		t.Error("negative counter accepted")
	}
}

func TestParsePrometheusAcceptsHelpAndTimestamps(t *testing.T) {
	body := "# HELP g a gauge\n# TYPE g gauge\ng{x=\"y\"} 1.5 1700000000000\n"
	fams, err := obstest.ParsePrometheus(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	g := fams["g"]
	if g == nil || len(g.Samples) != 1 || g.Samples[0].Value != 1.5 || g.Samples[0].Labels["x"] != "y" {
		t.Fatalf("parsed %+v", g)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"server.cache.hits":  "server_cache_hits",
		"ok_name":            "ok_name",
		"weird-name/2":       "weird_name_2",
		"9starts.with.digit": "_9starts_with_digit",
	} {
		if got := obs.SanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}
