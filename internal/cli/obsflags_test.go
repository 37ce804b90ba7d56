package cli

import (
	"encoding/json"
	"flag"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nodevar/internal/obs"
	"nodevar/internal/obs/obstest"
)

func parseObs(t *testing.T, args ...string) *ObsFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := &ObsFlags{}
	o.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestObsFlagDefaults(t *testing.T) {
	o := parseObs(t)
	if o.Verbose || o.LogFormat != "text" || o.MetricsOut != "" || o.TraceOut != "" ||
		o.ManifestOut != "auto" || o.PprofAddr != "" {
		t.Errorf("unexpected defaults: %+v", o)
	}
	if o.manifestPath() != "" {
		t.Errorf("manifest enabled with no other output: %q", o.manifestPath())
	}
}

func TestManifestPathResolution(t *testing.T) {
	cases := []struct {
		manifest, metrics, trace, want string
	}{
		{"auto", "", "", ""},
		{"auto", "m.json", "", "run-manifest.json"},
		{"auto", "", "t.json", "run-manifest.json"},
		{"none", "m.json", "t.json", ""},
		{"", "m.json", "", ""},
		{"custom.json", "", "", "custom.json"},
	}
	for _, c := range cases {
		o := &ObsFlags{ManifestOut: c.manifest, MetricsOut: c.metrics, TraceOut: c.trace}
		if got := o.manifestPath(); got != c.want {
			t.Errorf("manifestPath(%+v) = %q, want %q", c, got, c.want)
		}
	}
}

func TestStartRejectsBadLogFormat(t *testing.T) {
	o := &ObsFlags{LogFormat: "yaml"}
	if _, err := o.Start("test"); err == nil {
		t.Fatal("Start accepted log format yaml")
	}
}

// TestPprofServesDebugSurface starts the -pprof server and checks it
// serves obs.DebugHandler: pprof profiles and Prometheus /metrics, and
// no expvar.
func TestPprofServesDebugSurface(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := parseObs(t, "-pprof", addr).Start("clitest"); err != nil {
		t.Fatal(err)
	}
	status := func(path string) (int, error) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	// The server starts in the background; wait for it to answer.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, err := status("/metrics"); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("-pprof server never answered: %v", err)
		}
	}
	for path, want := range map[string]int{
		"/debug/pprof/": http.StatusOK,
		"/metrics":      http.StatusOK,
		"/debug/vars":   http.StatusNotFound,
	} {
		if got, err := status(path); err != nil || got != want {
			t.Errorf("GET %s: status %d (%v), want %d", path, got, err, want)
		}
	}
}

// TestRunFinishWritesArtifacts drives the full flag-to-file path: Start
// installs a tracer, spans and metrics accumulate, Finish writes a
// valid metrics snapshot, Chrome trace, and run manifest.
func TestRunFinishWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	o := parseObs(t,
		"-v", "-log-format", "json",
		"-metrics-out", filepath.Join(dir, "m.json"),
		"-trace-out", filepath.Join(dir, "t.json"),
		"-manifest", filepath.Join(dir, "manifest.json"),
	)
	run, err := o.Start("clitest")
	if err != nil {
		t.Fatal(err)
	}
	defer obs.SetTracer(nil)
	if run.Tracer == nil {
		t.Fatal("Start did not install a tracer despite -trace-out")
	}
	if obs.T() != run.Tracer {
		t.Error("Start did not publish the tracer process-wide")
	}

	run.SetConfig("seed", 2015)
	sp := obs.T().Start("experiment", "table1")
	sp.End()
	obs.NewCounter("cli_test.counter").Inc()

	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}

	var snap obs.Snapshot
	mustUnmarshal(t, filepath.Join(dir, "m.json"), &snap)
	if snap.Counters["cli_test.counter"] < 1 {
		t.Errorf("metrics snapshot missing counter: %+v", snap.Counters)
	}

	f, err := os.Open(filepath.Join(dir, "t.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obstest.ValidateChromeTrace(f); err != nil {
		t.Errorf("emitted trace invalid: %v", err)
	}

	var m obs.Manifest
	mustUnmarshal(t, filepath.Join(dir, "manifest.json"), &m)
	if m.Schema != obs.ManifestSchema {
		t.Errorf("manifest schema = %q, want %q", m.Schema, obs.ManifestSchema)
	}
	if m.Command != "clitest" {
		t.Errorf("manifest command = %q", m.Command)
	}
	if m.Version == "" {
		t.Error("manifest version empty")
	}
	if v, ok := m.Config["seed"]; !ok || v != float64(2015) {
		t.Errorf("manifest config seed = %v", v)
	}
	found := false
	for _, p := range m.Phases {
		if p.Cat == "experiment" && p.Name == "table1" && p.Count >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("manifest phases missing experiment/table1: %+v", m.Phases)
	}
}

func mustUnmarshal(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
